(* Multi-tenant serving driver: see the interface for the isolation
   invariant. The implementation discipline that upholds it: tenant
   state lives entirely in the tenant's own engine and chaos plan; the
   only ambient state the driver touches (the trace clock, the chaos
   plan) is re-pointed at the running tenant around every slice and
   restored after, so no tenant ever observes another's. *)

type tenant = {
  tn_id : string;
  tn_make : unit -> Ir.Types.program * Engine.config;
  tn_iters : int;
}

type limits = {
  queue_capacity : int option;
  queue_age_unit : int;
  cache_capacity : int option;
  compile_deadline : int option;
  chaos_rate : float;
  chaos_seed : int;
}

let default_limits =
  { queue_capacity = None; queue_age_unit = 1024; cache_capacity = None;
    compile_deadline = None; chaos_rate = 0.0; chaos_seed = 0 }

(* FNV-1a over the tenant id, mixed with the base seed and masked
   positive. A pure function of (base, id): a tenant's fault plan never
   depends on who else is in the fleet. *)
let seed_for ~(base : int) (id : string) : int =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFF)
    id;
  ((base * 0x9E3779B1) lxor !h) land 0x3FFFFFFF

let parse_tenants (spec : string) : ((string * int) list, string) result =
  let bad part =
    Error
      (Printf.sprintf
         "bad tenant %S: want NAME or NAME*COUNT (count >= 1), e.g. \
          \"long-loop*3,gauss-mix\""
         part)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | part :: rest -> (
        let part = String.trim part in
        match String.index_opt part '*' with
        | None -> if part = "" then bad part else go ((part, 1) :: acc) rest
        | Some i -> (
            let name = String.trim (String.sub part 0 i) in
            let count =
              String.trim (String.sub part (i + 1) (String.length part - i - 1))
            in
            match int_of_string_opt count with
            | Some n when n >= 1 && name <> "" -> go ((name, n) :: acc) rest
            | _ -> bad part))
  in
  if String.trim spec = "" then Error "empty --tenants spec"
  else go [] (String.split_on_char ',' spec)

type tenant_report = {
  tr_id : string;
  tr_seed : int;
  tr_iters : int;
  tr_checksum : int;
  tr_output : string;
  tr_digest : string;
  tr_steps : int;
  tr_cycles : int;
  tr_compile_cycles : int;
  tr_installs : int;
  tr_invalidations : int;
  tr_evictions : int;
  tr_sheds : int;
  tr_bailouts : int;
  tr_blacklisted : int;
  tr_cache_used : int;
  tr_queue_depth : int;
  tr_queue_wait_p50 : int;
  tr_queue_wait_p90 : int;
  tr_queue_wait_p99 : int;
  tr_queue_wait_max : int;
  tr_ttp_p50 : int;
  tr_ttp_p90 : int;
  tr_ttp_p99 : int;
  tr_ttp_max : int;
}

type live = {
  lv_tenant : tenant;
  lv_engine : Engine.t;
  lv_plan : Support.Chaos.plan option;
  lv_seed : int;
  mutable lv_done : int;
  mutable lv_checksum : int;
  mutable lv_results : Digest.t;  (* rolling MD5 over the bench results *)
}

(* One benchmark iteration of one tenant, under that tenant's ambient
   state: its own trace clock and its own chaos plan (whose RNG stream
   persists across the tenant's slices — [Chaos.with_plan], not a fresh
   [scoped] plan). *)
let slice (lv : live) : unit =
  let vm = lv.lv_engine.Engine.vm in
  Obs.Trace.set_clock (fun () -> vm.Runtime.Interp.cycles);
  Support.Chaos.with_plan lv.lv_plan (fun () ->
      Obs.Trace.emit "serve_slice" (fun () ->
          Support.Json.
            [
              ("tenant", String lv.lv_tenant.tn_id);
              ("iter", Int (lv.lv_done + 1));
            ]);
      let v =
        Engine.run_meth lv.lv_engine "bench" [ Runtime.Values.Vunit ]
      in
      let x = match v with Runtime.Values.Vint n -> n | _ -> 0 in
      lv.lv_checksum <- ((lv.lv_checksum * 31) + x) land max_int;
      lv.lv_results <- Digest.string (lv.lv_results ^ Runtime.Values.to_string v);
      lv.lv_done <- lv.lv_done + 1)

let finish (lv : live) : tenant_report =
  let e = lv.lv_engine in
  let vm = e.Engine.vm in
  Obs.Trace.set_clock (fun () -> vm.Runtime.Interp.cycles);
  Support.Chaos.with_plan lv.lv_plan (fun () ->
      (* one final row per tenant so the timeline's last sample reflects
         end-of-run state (the cadence may have left it mid-interval) *)
      Engine.sample_timeline ~force:true e;
      let s = Engine.stats e in
      let w50, w90, w99, wmax = Support.Stats.percentiles s.queue_waits in
      let t50, t90, t99, tmax = Support.Stats.percentiles s.ttp in
      let r =
        {
          tr_id = lv.lv_tenant.tn_id;
          tr_seed = lv.lv_seed;
          tr_iters = lv.lv_done;
          tr_checksum = lv.lv_checksum;
          tr_output = Engine.output e;
          tr_digest = Digest.to_hex (Digest.string (lv.lv_results ^ Engine.output e));
          tr_steps = s.steps;
          tr_cycles = s.cycles;
          tr_compile_cycles = s.compile_cycles;
          tr_installs = s.installs;
          tr_invalidations = s.invalidations;
          tr_evictions = s.evictions;
          tr_sheds = s.sheds;
          tr_bailouts = s.failed_attempts;
          tr_blacklisted = List.length s.blacklisted_methods;
          tr_cache_used = s.cache_used;
          tr_queue_depth = s.queue_depth;
          tr_queue_wait_p50 = w50;
          tr_queue_wait_p90 = w90;
          tr_queue_wait_p99 = w99;
          tr_queue_wait_max = wmax;
          tr_ttp_p50 = t50;
          tr_ttp_p90 = t90;
          tr_ttp_p99 = t99;
          tr_ttp_max = tmax;
        }
      in
      Obs.Trace.emit "serve_tenant_done" (fun () ->
          Support.Json.
            [
              ("tenant", String r.tr_id);
              ("iters", Int r.tr_iters);
              ("steps", Int r.tr_steps);
              ("vm_cycles", Int r.tr_cycles);
              ("evictions", Int r.tr_evictions);
              ("sheds", Int r.tr_sheds);
            ]);
      r)

let run ?(limits = default_limits) ?timeline (tenants : tenant list) :
    tenant_report list =
  Obs.Trace.emit "serve_start" (fun () ->
      Support.Json.
        [
          ("tenants", Int (List.length tenants));
          ( "queue_capacity",
            Int (match limits.queue_capacity with Some c -> c | None -> -1) );
          ( "cache_capacity",
            Int (match limits.cache_capacity with Some c -> c | None -> -1) );
          ( "compile_deadline",
            Int (match limits.compile_deadline with Some c -> c | None -> -1) );
          ("chaos_rate", Float limits.chaos_rate);
        ]);
  let lives =
    List.map
      (fun tn ->
        let prog, config = tn.tn_make () in
        let engine =
          Engine.create ?queue_capacity:limits.queue_capacity
            ~queue_age_unit:limits.queue_age_unit
            ?cache_capacity:limits.cache_capacity
            ?compile_fuel:limits.compile_deadline prog config
        in
        let seed = seed_for ~base:limits.chaos_seed tn.tn_id in
        let plan =
          if limits.chaos_rate > 0.0 then
            Some (Support.Chaos.make ~seed ~rate:limits.chaos_rate)
          else None
        in
        (match timeline with
        | Some tl -> Engine.attach_timeline engine ~source:tn.tn_id tl
        | None -> ());
        { lv_tenant = tn; lv_engine = engine; lv_plan = plan; lv_seed = seed;
          lv_done = 0; lv_checksum = 0; lv_results = Digest.string "" })
      tenants
  in
  (* cross-tenant fleet snapshot: queue/cache totals plus the
     p50/p90/p99/max latency percentiles over every tenant's population
     so far. Clocked on the fleet's frontier (the furthest tenant clock)
     — a pure function of per-tenant state, so same-seed runs emit
     byte-identical rows. *)
  let fleet_due = ref 0 in
  let fleet_sample ~force () =
    match timeline with
    | None -> ()
    | Some tl ->
        let now =
          List.fold_left
            (fun acc lv ->
              max acc lv.lv_engine.Engine.vm.Runtime.Interp.cycles)
            0 lives
        in
        if force || now >= !fleet_due then begin
          let stats = List.map (fun lv -> Engine.stats lv.lv_engine) lives in
          let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
          let merged f = List.concat_map f stats |> List.sort compare in
          let active =
            List.length
              (List.filter (fun lv -> lv.lv_done < lv.lv_tenant.tn_iters) lives)
          in
          let w50, w90, w99, wmax =
            Support.Stats.percentiles (merged (fun s -> s.Engine.queue_waits))
          in
          let t50, t90, t99, tmax =
            Support.Stats.percentiles (merged (fun s -> s.Engine.ttp))
          in
          Obs.Timeline.fleet tl ~cycles:now
            Support.Json.
              [
                ("tenants", Int (List.length lives));
                ("active", Int active);
                ("queue_depth", Int (sum (fun s -> s.Engine.queue_depth)));
                ("cache_used", Int (sum (fun s -> s.Engine.cache_used)));
                ("sheds", Int (sum (fun s -> s.Engine.sheds)));
                ("evictions", Int (sum (fun s -> s.Engine.evictions)));
                ("invalidations", Int (sum (fun s -> s.Engine.invalidations)));
                ("queue_wait_p50", Int w50);
                ("queue_wait_p90", Int w90);
                ("queue_wait_p99", Int w99);
                ("queue_wait_max", Int wmax);
                ("ttp_p50", Int t50);
                ("ttp_p90", Int t90);
                ("ttp_p99", Int t99);
                ("ttp_max", Int tmax);
              ];
          fleet_due := now + Obs.Timeline.interval tl
        end
  in
  (* round-robin, one iteration per tenant per turn; tenants drop out as
     they finish *)
  let remaining = ref true in
  while !remaining do
    remaining := false;
    List.iter
      (fun lv ->
        if lv.lv_done < lv.lv_tenant.tn_iters then begin
          slice lv;
          if lv.lv_done < lv.lv_tenant.tn_iters then remaining := true
        end)
      lives;
    fleet_sample ~force:false ()
  done;
  let reports = List.map finish lives in
  fleet_sample ~force:true ();
  reports

let report_json (reports : tenant_report list) : Support.Json.t =
  Support.Json.Obj
    [
      ("tenants", Support.Json.Int (List.length reports));
      ( "fleet",
        Support.Json.List
          (List.map
             (fun r ->
               Support.Json.Obj
                 [
                   ("id", Support.Json.String r.tr_id);
                   ("seed", Support.Json.Int r.tr_seed);
                   ("iters", Support.Json.Int r.tr_iters);
                   ("checksum", Support.Json.Int r.tr_checksum);
                   ("output_digest", Support.Json.String r.tr_digest);
                   ("steps", Support.Json.Int r.tr_steps);
                   ("cycles", Support.Json.Int r.tr_cycles);
                   ("compile_cycles", Support.Json.Int r.tr_compile_cycles);
                   ("installs", Support.Json.Int r.tr_installs);
                   ("invalidations", Support.Json.Int r.tr_invalidations);
                   ("evictions", Support.Json.Int r.tr_evictions);
                   ("sheds", Support.Json.Int r.tr_sheds);
                   ("bailouts", Support.Json.Int r.tr_bailouts);
                   ("blacklisted", Support.Json.Int r.tr_blacklisted);
                   ("cache_used", Support.Json.Int r.tr_cache_used);
                   ("queue_depth", Support.Json.Int r.tr_queue_depth);
                   ("queue_wait_p50", Support.Json.Int r.tr_queue_wait_p50);
                   ("queue_wait_p90", Support.Json.Int r.tr_queue_wait_p90);
                   ("queue_wait_p99", Support.Json.Int r.tr_queue_wait_p99);
                   ("queue_wait_max", Support.Json.Int r.tr_queue_wait_max);
                   ("time_to_peak_p50", Support.Json.Int r.tr_ttp_p50);
                   ("time_to_peak_p90", Support.Json.Int r.tr_ttp_p90);
                   ("time_to_peak_p99", Support.Json.Int r.tr_ttp_p99);
                   ("time_to_peak_max", Support.Json.Int r.tr_ttp_max);
                 ])
             reports) );
    ]
