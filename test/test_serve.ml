(* Tests for the serving subsystem: the bounded prioritized compile
   queue (Jit.Scheduler), the bounded code cache (Jit.Codecache), their
   integration in the engine (eviction exactness across backends,
   evicted-then-rehot recompilation, queue-mode and deadline
   degradation), and the multi-tenant driver (Jit.Serve) — spec parsing,
   id-derived seeding, and the solo-vs-fleet isolation invariant,
   including a pathological tenant that cannot perturb its neighbors. *)

open Util

(* ---------- compile-queue scheduler ---------- *)

let scheduler_tests =
  [
    test "score grows with hotness and age and clamps negatives" (fun () ->
        Alcotest.(check int) "age 0" 5
          (Jit.Scheduler.score ~hotness:5 ~age:0 ~age_unit:64);
        Alcotest.(check int) "one age unit adds one hotness" 10
          (Jit.Scheduler.score ~hotness:5 ~age:64 ~age_unit:64);
        Alcotest.(check int) "negative age clamps" 5
          (Jit.Scheduler.score ~hotness:5 ~age:(-1000) ~age_unit:64);
        Alcotest.(check int) "negative hotness clamps" 0
          (Jit.Scheduler.score ~hotness:(-3) ~age:500 ~age_unit:64));
    test "score saturates instead of wrapping negative" (fun () ->
        (* the PR 7 overflow class: a wrapped product would rank an
           ancient request below a fresh one, inverting anti-starvation *)
        Alcotest.(check int) "max x max saturates" max_int
          (Jit.Scheduler.score ~hotness:max_int ~age:max_int ~age_unit:1);
        List.iter
          (fun (h, a) ->
            Alcotest.(check bool)
              (Printf.sprintf "non-negative at %d/%d" h a)
              true
              (Jit.Scheduler.score ~hotness:h ~age:a ~age_unit:1 >= 0))
          [ (max_int / 2, max_int / 2); (max_int, 1); (3, max_int) ]);
    test "a waiting request eventually outscores any fixed hotness" (fun () ->
        Alcotest.(check bool) "age beats hotness" true
          (Jit.Scheduler.score ~hotness:1 ~age:(1000 * 64) ~age_unit:64
          > Jit.Scheduler.score ~hotness:1000 ~age:0 ~age_unit:64));
    test "admission: admit, already waiting, reject, displace" (fun () ->
        let q = Jit.Scheduler.create ~capacity:2 ~age_unit:64 in
        Alcotest.(check bool) "a admitted" true
          (Jit.Scheduler.enqueue q ~meth:"a" ~hotness:5 ~now:0
          = Jit.Scheduler.Admitted);
        Alcotest.(check bool) "a already waiting on re-offer" true
          (Jit.Scheduler.enqueue q ~meth:"a" ~hotness:9 ~now:0
          = Jit.Scheduler.Waiting);
        Alcotest.(check bool) "b admitted" true
          (Jit.Scheduler.enqueue q ~meth:"b" ~hotness:3 ~now:0
          = Jit.Scheduler.Admitted);
        (* full: a cheap request is rejected on arrival *)
        Alcotest.(check bool) "c rejected" true
          (Jit.Scheduler.enqueue q ~meth:"c" ~hotness:1 ~now:0
          = Jit.Scheduler.Rejected);
        (* full: a hot request displaces the cheapest waiting one *)
        Alcotest.(check bool) "d displaces b" true
          (Jit.Scheduler.enqueue q ~meth:"d" ~hotness:50 ~now:0
          = Jit.Scheduler.Displaced "b");
        (* an exact tie loses: the incumbents have waited longer. The
           re-offer left a at the hotness it was admitted with, 5. *)
        Alcotest.(check bool) "tie rejected" true
          (Jit.Scheduler.enqueue q ~meth:"e" ~hotness:5 ~now:0
          = Jit.Scheduler.Rejected);
        Alcotest.(check bool) "f displaces a" true
          (Jit.Scheduler.enqueue q ~meth:"f" ~hotness:6 ~now:0
          = Jit.Scheduler.Displaced "a");
        let pops = List.init 3 (fun _ -> Option.map fst (Jit.Scheduler.pop q ~now:0)) in
        Alcotest.(check (list (option string)))
          "only d and f wait" [ Some "d"; Some "f"; None ] pops);
    test "pop: priority order, busy window, wait accounting" (fun () ->
        let q = Jit.Scheduler.create ~capacity:4 ~age_unit:64 in
        ignore (Jit.Scheduler.enqueue q ~meth:"cold" ~hotness:2 ~now:0);
        ignore (Jit.Scheduler.enqueue q ~meth:"hot" ~hotness:5 ~now:10);
        (match Jit.Scheduler.pop q ~now:20 with
        | Some (m, wait) ->
            Alcotest.(check string) "hottest first" "hot" m;
            Alcotest.(check int) "waited since enqueue" 10 wait
        | None -> Alcotest.fail "idle compiler refused a pop");
        Jit.Scheduler.occupy q ~until:100;
        Alcotest.(check bool) "busy compiler pops nothing" true
          (Jit.Scheduler.pop q ~now:50 = None);
        (* occupy is monotone: a shorter horizon never frees it early *)
        Jit.Scheduler.occupy q ~until:60;
        Alcotest.(check bool) "horizon kept" true
          (Jit.Scheduler.pop q ~now:90 = None);
        (match Jit.Scheduler.pop q ~now:100 with
        | Some (m, wait) ->
            Alcotest.(check string) "backlog drains" "cold" m;
            Alcotest.(check int) "full wait" 100 wait
        | None -> Alcotest.fail "free compiler refused the backlog");
        Alcotest.(check bool) "empty queue pops nothing" true
          (Jit.Scheduler.pop q ~now:200 = None));
    test "pop ties go to the longest-waiting request" (fun () ->
        let q = Jit.Scheduler.create ~capacity:4 ~age_unit:64 in
        ignore (Jit.Scheduler.enqueue q ~meth:"first" ~hotness:5 ~now:0);
        ignore (Jit.Scheduler.enqueue q ~meth:"second" ~hotness:5 ~now:0);
        match Jit.Scheduler.pop q ~now:0 with
        | Some (m, _) -> Alcotest.(check string) "oldest wins" "first" m
        | None -> Alcotest.fail "no pop");
    test "capacity 0 sheds every request" (fun () ->
        let q = Jit.Scheduler.create ~capacity:0 ~age_unit:64 in
        Alcotest.(check bool) "rejected" true
          (Jit.Scheduler.enqueue q ~meth:"a" ~hotness:1000 ~now:0
          = Jit.Scheduler.Rejected);
        Alcotest.(check int) "nothing waits" 0 (Jit.Scheduler.length q));
  ]

(* ---------- code cache ---------- *)

let codecache_tests =
  [
    test "retain_score: cost-benefit shape, saturating, non-negative" (fun () ->
        Alcotest.(check int) "recency + uses - size" 200
          (Jit.Codecache.retain_score ~last_used:100 ~uses:2 ~size:28);
        Alcotest.(check int) "big bodies clamp to 0, not negative" 0
          (Jit.Codecache.retain_score ~last_used:10 ~uses:0 ~size:10_000);
        Alcotest.(check int) "saturates at max_int" max_int
          (Jit.Codecache.retain_score ~last_used:max_int ~uses:max_int ~size:0);
        Alcotest.(check bool) "never negative" true
          (Jit.Codecache.retain_score ~last_used:max_int ~uses:1 ~size:max_int
          >= 0));
    test "capacity 0 evicts every install immediately" (fun () ->
        let c = Jit.Codecache.create ~capacity:0 in
        Alcotest.(check (list int)) "self-eviction" [ 0 ]
          (Jit.Codecache.install c ~meth:0 ~size:5 ~now:0);
        Alcotest.(check int) "nothing resident" 0 (Jit.Codecache.resident c);
        Alcotest.(check int) "nothing used" 0 (Jit.Codecache.used c));
    test "capacity 1 with a bigger body behaves like capacity 0" (fun () ->
        let c = Jit.Codecache.create ~capacity:1 in
        Alcotest.(check (list int)) "self-eviction" [ 0 ]
          (Jit.Codecache.install c ~meth:0 ~size:2 ~now:0);
        (* a body that fits stays *)
        Alcotest.(check (list int)) "exact fit stays" []
          (Jit.Codecache.install c ~meth:1 ~size:1 ~now:1);
        Alcotest.(check bool) "resident" true (Jit.Codecache.mem c 1));
    test "install evicts the lowest-retention entry first" (fun () ->
        let c = Jit.Codecache.create ~capacity:10 in
        Alcotest.(check (list int)) "a fits" []
          (Jit.Codecache.install c ~meth:0 ~size:6 ~now:0);
        Alcotest.(check (list int)) "b fits" []
          (Jit.Codecache.install c ~meth:1 ~size:4 ~now:100);
        Alcotest.(check int) "full" 10 (Jit.Codecache.used c);
        (* a (stale, big) scores below b (fresh): a goes *)
        Alcotest.(check (list int)) "a evicted" [ 0 ]
          (Jit.Codecache.install c ~meth:2 ~size:1 ~now:200);
        Alcotest.(check bool) "b survived" true (Jit.Codecache.mem c 1);
        Alcotest.(check int) "accounting" 5 (Jit.Codecache.used c));
    test "touch refreshes retention and protects hot code" (fun () ->
        let c = Jit.Codecache.create ~capacity:10 in
        ignore (Jit.Codecache.install c ~meth:0 ~size:5 ~now:0);
        ignore (Jit.Codecache.install c ~meth:1 ~size:5 ~now:10);
        (* without the touch, a (older) would be the victim *)
        Jit.Codecache.touch c 0 ~now:500;
        Alcotest.(check (list int)) "b evicted instead" [ 1 ]
          (Jit.Codecache.install c ~meth:3 ~size:5 ~now:600);
        Alcotest.(check bool) "a survived" true (Jit.Codecache.mem c 0));
    test "reinstalling a method replaces, not double-counts" (fun () ->
        let c = Jit.Codecache.create ~capacity:10 in
        ignore (Jit.Codecache.install c ~meth:0 ~size:6 ~now:0);
        Alcotest.(check (list int)) "no eviction" []
          (Jit.Codecache.install c ~meth:0 ~size:8 ~now:10);
        Alcotest.(check int) "new size only" 8 (Jit.Codecache.used c);
        Alcotest.(check int) "one entry" 1 (Jit.Codecache.resident c));
    test "retention ties evict the oldest install" (fun () ->
        let c = Jit.Codecache.create ~capacity:4 in
        ignore (Jit.Codecache.install c ~meth:0 ~size:2 ~now:0);
        ignore (Jit.Codecache.install c ~meth:1 ~size:2 ~now:0);
        Alcotest.(check (list int)) "oldest goes" [ 0 ]
          (Jit.Codecache.install c ~meth:2 ~size:2 ~now:0));
    test "remove drops residency without an eviction" (fun () ->
        let c = Jit.Codecache.create ~capacity:10 in
        ignore (Jit.Codecache.install c ~meth:0 ~size:6 ~now:0);
        Jit.Codecache.remove c 0;
        Alcotest.(check bool) "gone" false (Jit.Codecache.mem c 0);
        Alcotest.(check int) "freed" 0 (Jit.Codecache.used c));
  ]

(* Random install/touch sequences never break the residency budget, and
   every reported victim is really gone. *)
let cache_invariant_prop =
  QCheck.Test.make ~count:200 ~name:"random installs never exceed capacity"
    QCheck.(
      pair (int_range 0 15)
        (small_list (pair (int_range 0 5) (int_range 0 10))))
    (fun (cap, ops) ->
      let c = Jit.Codecache.create ~capacity:cap in
      List.for_all
        (fun (i, (meth, size)) ->
          let victims = Jit.Codecache.install c ~meth ~size ~now:i in
          Jit.Codecache.used c <= cap
          && List.for_all (fun v -> not (Jit.Codecache.mem c v)) victims)
        (List.mapi (fun i op -> (i, op)) ops))

(* The list implementation that [Jit.Codecache] replaced with a dense
   index, kept as the model the cache must agree with after every step:
   every lookup is a scan of the resident list. *)
module Cache_model = struct
  type entry = {
    meth : int;
    size : int;
    seq : int;
    mutable last : int;
    mutable uses : int;
  }

  type t = {
    cap : int;
    mutable entries : entry list;
    mutable next_seq : int;
    mutable total : int;
  }

  let create ~capacity = { cap = max 0 capacity; entries = []; next_seq = 0; total = 0 }
  let used t = t.total
  let resident t = List.length t.entries
  let mem t meth = List.exists (fun e -> e.meth = meth) t.entries

  let score e =
    Jit.Codecache.retain_score ~last_used:e.last ~uses:e.uses ~size:e.size

  let drop t e =
    t.entries <- List.filter (fun e' -> e' != e) t.entries;
    t.total <- t.total - e.size

  let remove t meth =
    match List.find_opt (fun e -> e.meth = meth) t.entries with
    | Some e -> drop t e
    | None -> ()

  let install t ~meth ~size ~now =
    remove t meth;
    let e = { meth; size = max 0 size; seq = t.next_seq; last = now; uses = 0 } in
    t.next_seq <- t.next_seq + 1;
    t.entries <- e :: t.entries;
    t.total <- t.total + e.size;
    let victims = ref [] in
    while t.total > t.cap do
      match t.entries with
      | [] -> t.total <- 0
      | e0 :: rest ->
          let victim =
            List.fold_left
              (fun best e' ->
                let sb = score best and se = score e' in
                if se < sb || (se = sb && e'.seq < best.seq) then e' else best)
              e0 rest
          in
          drop t victim;
          victims := victim.meth :: !victims
    done;
    List.rev !victims

  let touch t meth ~now =
    match List.find_opt (fun e -> e.meth = meth) t.entries with
    | Some e ->
        e.last <- now;
        e.uses <- e.uses + 1
    | None -> ()
end

type cache_op = Install of int * int | Touch of int | Remove of int

let cache_op =
  QCheck.make
    ~print:(function
      | Install (m, size) -> Printf.sprintf "install %d size %d" m size
      | Touch m -> Printf.sprintf "touch %d" m
      | Remove m -> Printf.sprintf "remove %d" m)
    QCheck.Gen.(
      frequency
        [
          (3, map2 (fun m size -> Install (m, size)) (int_range 0 7) (int_range 0 10));
          (4, map (fun m -> Touch m) (int_range 0 7));
          (1, map (fun m -> Remove m) (int_range 0 7));
        ])

(* Random install, touch and remove sequences through the cache and the
   model: after every step both report the same victims in the same
   order, the same residency and the same membership. *)
let cache_model_prop =
  QCheck.Test.make ~count:500 ~name:"code cache agrees with the list model"
    QCheck.(pair (int_range 0 20) (small_list (pair cache_op (int_range 0 1000))))
    (fun (cap, ops) ->
      let c = Jit.Codecache.create ~capacity:cap in
      let o = Cache_model.create ~capacity:cap in
      List.for_all
        (fun (op, now) ->
          let same_victims =
            match op with
            | Install (meth, size) ->
                Jit.Codecache.install c ~meth ~size ~now
                = Cache_model.install o ~meth ~size ~now
            | Touch m ->
                Jit.Codecache.touch c m ~now;
                Cache_model.touch o m ~now;
                true
            | Remove m ->
                Jit.Codecache.remove c m;
                Cache_model.remove o m;
                true
          in
          same_victims
          && Jit.Codecache.used c = Cache_model.used o
          && Jit.Codecache.resident c = Cache_model.resident o
          && List.for_all
               (fun m -> Jit.Codecache.mem c m = Cache_model.mem o m)
               (List.init 10 (fun m -> m - 1)))
        ops)

(* ---------- engine integration: eviction exactness ---------- *)

let jit_config name compiler : Jit.Engine.config =
  {
    Jit.Engine.name;
    compiler;
    hotness_threshold = 3;
    compile_cost_per_node = 50;
    verify = false;
  }

(* Runs [w] under the JIT with an optional cache bound; returns the full
   output (main once, then 3 bench iterations). *)
let cached_output (w : Workloads.Defs.t) ~(cap : int option)
    ~(backend : Runtime.Interp.backend) : string =
  let prog = Workloads.Registry.compile w in
  let e =
    Jit.Engine.create ?cache_capacity:cap prog
      (jit_config "serve-prop" (Some (incremental ())))
  in
  e.vm.backend <- backend;
  ignore (Jit.Engine.run_main e);
  for _ = 1 to 3 do
    ignore (Jit.Engine.run_meth e "bench" [ Runtime.Values.Vunit ])
  done;
  Jit.Engine.output e

let eviction_exactness_prop =
  QCheck.Test.make ~count:10
    ~name:"eviction exactness: every backend = unbounded = reference"
    QCheck.(
      pair Sel_gen.synth
        (make ~print:(Printf.sprintf "cap=%d")
           Gen.(oneof [ return 0; return 1; int_range 2 400 ])))
    (fun (cfg, cap) ->
      let w = Workloads.Synth.generate cfg in
      let unbounded = cached_output w ~cap:None ~backend:Runtime.Interp.Threaded in
      (* main's pinned expected output leads the unbounded run *)
      String.sub unbounded 0 (String.length w.Workloads.Defs.expected)
      = w.Workloads.Defs.expected
      && List.for_all
           (fun backend -> cached_output w ~cap:(Some cap) ~backend = unbounded)
           [ Runtime.Interp.Threaded; Runtime.Interp.Reference ])

let rehot_src =
  {|def work(n: Int): Int = { var i = 0; var s = 0; while (i < n) { s = s + i * i; i = i + 1 }; s }
    def bench(): Int = work(40)
    def main(): Unit = println(bench())|}

let engine_tests =
  [
    test "an evicted-then-rehot method recompiles and re-installs" (fun () ->
        (* capacity 0: every install is immediately evicted, the method
           re-heats through the cooldown and compiles again — churn is
           bounded by the evict-count backoff, not by max_recompiles *)
        let e =
          Jit.Engine.create ~cache_capacity:0 (compile rehot_src)
            (jit_config "rehot" (Some (incremental ())))
        in
        ignore (Jit.Engine.run_main e);
        for _ = 1 to 200 do
          ignore (Jit.Engine.run_meth e "bench" [ Runtime.Values.Vunit ])
        done;
        let installs_of name =
          List.length
            (List.filter
               (fun (c : Jit.Engine.compilation) ->
                 (Ir.Program.meth e.vm.prog c.cm).Ir.Types.m_name = name)
               e.compilations)
        in
        Alcotest.(check bool) "work re-installed after eviction" true
          (installs_of "work" >= 2);
        let st = Jit.Engine.stats e in
        Alcotest.(check bool) "evictions recorded" true (st.evictions >= 2);
        (* eviction consumed no failure budget: nothing blacklisted *)
        Alcotest.(check int) "no blacklist" 0 (List.length st.blacklisted_methods);
        (* and the churn was semantically invisible *)
        let r =
          Jit.Engine.create (compile rehot_src) (jit_config "rehot-ref" None)
        in
        r.vm.backend <- Runtime.Interp.Reference;
        ignore (Jit.Engine.run_main r);
        for _ = 1 to 200 do
          ignore (Jit.Engine.run_meth r "bench" [ Runtime.Values.Vunit ])
        done;
        Alcotest.(check string) "output = reference" (Jit.Engine.output r)
          (Jit.Engine.output e));
    test "queue capacity 0 sheds every compile yet stays exact" (fun () ->
        (* OSR off: loop-transfer compiles legitimately bypass the queue,
           so only the hot-entry trigger (the queued path) remains *)
        let run cap =
          let e =
            Jit.Engine.create ~osr:false ?queue_capacity:cap (compile rehot_src)
              (jit_config "shed-all" (Some (incremental ())))
          in
          ignore (Jit.Engine.run_main e);
          for _ = 1 to 30 do
            ignore (Jit.Engine.run_meth e "bench" [ Runtime.Values.Vunit ])
          done;
          e
        in
        let shed = run (Some 0) and direct = run None in
        Alcotest.(check int) "nothing ever installs" 0
          (List.length shed.compilations);
        Alcotest.(check bool) "sheds counted" true
          ((Jit.Engine.stats shed).sheds > 0);
        Alcotest.(check string) "output unchanged" (Jit.Engine.output direct)
          (Jit.Engine.output shed));
    test "a working queue compiles in the background and records waits"
      (fun () ->
        let e =
          Jit.Engine.create ~queue_capacity:4 (compile rehot_src)
            (jit_config "queued" (Some (incremental ())))
        in
        ignore (Jit.Engine.run_main e);
        for _ = 1 to 30 do
          ignore (Jit.Engine.run_meth e "bench" [ Runtime.Values.Vunit ])
        done;
        Alcotest.(check bool) "installs happened" true
          (List.length e.compilations > 0);
        let st = Jit.Engine.stats e in
        Alcotest.(check bool) "queue waits recorded" true (st.queue_waits <> []);
        Alcotest.(check bool) "waits are sorted ascending" true
          (List.sort compare st.queue_waits = st.queue_waits);
        Alcotest.(check bool) "time-to-peak recorded" true (st.ttp <> []));
    test "a starved compile deadline bails out but stays exact" (fun () ->
        (* the serve deadline reaches the engine as its per-attempt fuel *)
        let run compile_deadline =
          let tn =
            {
              Jit.Serve.tn_id = "deadline#0";
              tn_make =
                (fun () ->
                  (compile rehot_src, jit_config "deadline" (Some (incremental ()))));
              tn_iters = 30;
            }
          in
          match
            Jit.Serve.run ~limits:{ Jit.Serve.default_limits with compile_deadline } [ tn ]
          with
          | [ r ] -> r
          | rs -> Alcotest.failf "served %d reports" (List.length rs)
        in
        let starved = run (Some 1) and free = run None in
        Alcotest.(check bool) "deadline misses are contained bailouts" true
          (starved.tr_bailouts > 0);
        Alcotest.(check int) "nothing installed under a 1-credit deadline" 0
          starved.tr_installs;
        Alcotest.(check bool) "installs without a deadline" true (free.tr_installs > 0);
        Alcotest.(check int) "results unchanged" free.tr_checksum starved.tr_checksum);
    test "an entry of resident code allocates nothing" (fun () ->
        (* the entry hook runs at every invocation: with a queue and a
           bounded cache armed, entering resident code (refreshing its
           retention) and reading its installed body must not allocate *)
        let e =
          Jit.Engine.create ~queue_capacity:4 ~cache_capacity:100_000
            (compile rehot_src)
            (jit_config "entry-alloc" (Some (incremental ())))
        in
        ignore (Jit.Engine.run_main e);
        for _ = 1 to 30 do
          ignore (Jit.Engine.run_meth e "bench" [ Runtime.Values.Vunit ])
        done;
        let m = Option.get (Ir.Program.find_meth e.vm.prog "work") in
        Alcotest.(check bool) "work is resident" true
          (Jit.Codecache.mem (Option.get e.serve_cache) m);
        let entries () =
          for _ = 1 to 10_000 do
            e.vm.on_entry m;
            ignore (Sys.opaque_identity (Runtime.Interp.installed e.vm m))
          done
        in
        (* a first round drains whatever the queue still holds *)
        entries ();
        let words f =
          let before = Gc.minor_words () in
          f ();
          Gc.minor_words () -. before
        in
        let overhead = words (fun () -> ()) in
        Alcotest.(check int) "minor words over 10,000 entries" 0
          (int_of_float (words entries -. overhead)));
  ]

(* ---------- multi-tenant driver ---------- *)

let serve_config () = jit_config "serve-test" (Some (incremental ()))

let tenant id ?(iters = 10) src : Jit.Serve.tenant =
  {
    Jit.Serve.tn_id = id;
    tn_make = (fun () -> (compile src, serve_config ()));
    tn_iters = iters;
  }

let tenant_a_src =
  {|def work(n: Int): Int = { var i = 0; var s = 0; while (i < n) { s = s + i * i; i = i + 1 }; s }
    def bench(): Int = work(50)
    def main(): Unit = println(bench())|}

let tenant_b_src =
  {|def f(n: Int): Int = { var i = 1; var s = 1; while (i < n) { s = s * i % 1000003; i = i + 1 }; s }
    def g(n: Int): Int = f(n) + f(n + 1)
    def bench(): Int = g(30)
    def main(): Unit = println(bench())|}

let soak_limits : Jit.Serve.limits =
  {
    Jit.Serve.queue_capacity = Some 2;
    queue_age_unit = 64;
    cache_capacity = Some 20;
    compile_deadline = None;
    chaos_rate = 0.5;
    chaos_seed = 11;
  }

(* The [output_digest] of each tenant in a fleet report, in order. *)
let output_digests (reports : Jit.Serve.tenant_report list) : string list =
  match Support.Json.member "fleet" (Jit.Serve.report_json reports) with
  | Some (Support.Json.List rows) ->
      List.map
        (fun row ->
          match Support.Json.member "output_digest" row with
          | Some (Support.Json.String d) -> d
          | _ -> Alcotest.fail "a fleet row without output_digest")
        rows
  | _ -> Alcotest.fail "a report without a fleet list"

(* The whole report: output, clocks and checksum, and the churn counters
   and latency percentiles [Engine.stats] feeds it. *)
let check_tenant_equal what (f : Jit.Serve.tenant_report)
    (s : Jit.Serve.tenant_report) =
  Alcotest.(check string) (what ^ ": report")
    (Support.Json.to_string (Jit.Serve.report_json [ s ]))
    (Support.Json.to_string (Jit.Serve.report_json [ f ]));
  Alcotest.(check string) (what ^ ": output") s.tr_output f.tr_output

(* Serves [tenants] as one fleet, then each alone under the same limits,
   and requires every tenant's whole report to match its solo run. *)
let fleet_equals_solo (limits : Jit.Serve.limits)
    (tenants : Jit.Serve.tenant list) : Jit.Serve.tenant_report list =
  let fleet = Jit.Serve.run ~limits tenants in
  Alcotest.(check int) "all reported" (List.length tenants) (List.length fleet);
  List.iter2
    (fun f tn ->
      match Jit.Serve.run ~limits [ tn ] with
      | [ s ] -> check_tenant_equal f.Jit.Serve.tr_id f s
      | rs -> Alcotest.failf "solo run returned %d reports" (List.length rs))
    fleet tenants;
  fleet

(* The first 8 registry workloads at the bench harness's thresholds. *)
let registry_tenants : Jit.Serve.tenant list =
  List.filteri (fun i _ -> i < 8) Workloads.Registry.all
  |> List.map (fun (w : Workloads.Defs.t) ->
         {
           Jit.Serve.tn_id = w.name ^ "#0";
           tn_make =
             (fun () ->
               ( Workloads.Registry.compile w,
                 { (jit_config "incremental" (Some (incremental ()))) with
                   hotness_threshold = 8 } ));
           tn_iters = w.iters;
         })

let serve_tests =
  [
    test "parse_tenants: names, counts, whitespace" (fun () ->
        match Jit.Serve.parse_tenants " a , b*3,c*2 " with
        | Ok pairs ->
            Alcotest.(check (list (pair string int)))
              "pairs"
              [ ("a", 1); ("b", 3); ("c", 2) ]
              pairs
        | Error e -> Alcotest.failf "rejected a good spec: %s" e);
    test "parse_tenants: malformed specs get one-line diagnostics" (fun () ->
        List.iter
          (fun spec ->
            match Jit.Serve.parse_tenants spec with
            | Ok _ -> Alcotest.failf "accepted %S" spec
            | Error e ->
                Alcotest.(check bool)
                  (Printf.sprintf "%S: single line" spec)
                  false
                  (String.contains e '\n'))
          [ ""; "  "; "a*0"; "a*-1"; "*3"; "a*"; "a*x"; "a,,b" ]);
    test "seed_for is a pure function of (base, id)" (fun () ->
        Alcotest.(check int) "stable"
          (Jit.Serve.seed_for ~base:7 "long-loop#0")
          (Jit.Serve.seed_for ~base:7 "long-loop#0");
        Alcotest.(check bool) "base matters" true
          (Jit.Serve.seed_for ~base:7 "x" <> Jit.Serve.seed_for ~base:8 "x");
        Alcotest.(check bool) "id matters" true
          (Jit.Serve.seed_for ~base:7 "x#0" <> Jit.Serve.seed_for ~base:7 "x#1");
        Alcotest.(check bool) "non-negative" true
          (Jit.Serve.seed_for ~base:min_int "x" >= 0));
    test "percentile: exact ranks on ascending lists" (fun () ->
        Alcotest.(check int) "empty" 0 (Support.Stats.percentile [] 0.5);
        Alcotest.(check int) "singleton" 5 (Support.Stats.percentile [ 5 ] 0.99);
        Alcotest.(check int) "p50 of 4" 2
          (Support.Stats.percentile [ 1; 2; 3; 4 ] 0.5);
        Alcotest.(check int) "p99 of 4" 4
          (Support.Stats.percentile [ 1; 2; 3; 4 ] 0.99);
        Alcotest.(check int) "p100 is max" 4
          (Support.Stats.percentile [ 1; 2; 3; 4 ] 1.0));
    test "fleet = solo, byte for byte, under pressure and chaos" (fun () ->
        let fleet =
          fleet_equals_solo soak_limits
            [
              tenant "a#0" tenant_a_src; tenant "b#0" tenant_b_src;
              tenant "a#1" tenant_a_src;
            ]
        in
        (* replicas of the same workload diverge only through their seeds *)
        let a0 = List.nth fleet 0 and a1 = List.nth fleet 2 in
        Alcotest.(check bool) "distinct seeds per replica" true
          (a0.Jit.Serve.tr_seed <> a1.Jit.Serve.tr_seed);
        Alcotest.(check int) "same program, same checksum"
          a0.Jit.Serve.tr_checksum a1.Jit.Serve.tr_checksum;
        (* the registry soak: 8 workloads with the code cache capped at a
           quarter of the residency an unbounded fleet reaches *)
        let queue = { Jit.Serve.default_limits with queue_capacity = Some 4 } in
        let demand =
          List.fold_left
            (fun a (r : Jit.Serve.tenant_report) -> max a r.tr_cache_used)
            0
            (Jit.Serve.run ~limits:queue registry_tenants)
        in
        let cap = max 1 (demand / 4) in
        Alcotest.(check bool)
          (Printf.sprintf "cache %d is at most 25%% of demand %d" cap demand)
          true
          (4 * cap <= demand);
        let fleet =
          fleet_equals_solo
            {
              queue with
              cache_capacity = Some cap;
              chaos_rate = 0.2;
              chaos_seed = 0xC0FFEE;
            }
            registry_tenants
        in
        Alcotest.(check bool) "the capped cache evicts" true
          (List.exists (fun (r : Jit.Serve.tenant_report) -> r.tr_evictions > 0)
             fleet));
    test "same-seed serve runs are fully deterministic" (fun () ->
        let mk () = [ tenant "a#0" tenant_a_src; tenant "b#0" tenant_b_src ] in
        let r1 = Jit.Serve.run ~limits:soak_limits (mk ()) in
        let r2 = Jit.Serve.run ~limits:soak_limits (mk ()) in
        Alcotest.(check bool) "reports identical" true (r1 = r2);
        Alcotest.(check string) "report JSON byte-identical"
          (Support.Json.to_string (Jit.Serve.report_json r1))
          (Support.Json.to_string (Jit.Serve.report_json r2)));
    test "a pathological tenant cannot perturb or blacklist a neighbor"
      (fun () ->
        let crashing : Jit.Engine.compiler = fun _ _ _ -> failwith "boom" in
        let bad =
          {
            Jit.Serve.tn_id = "bad#0";
            tn_make =
              (fun () -> (compile tenant_b_src, jit_config "bad" (Some crashing)));
            tn_iters = 10;
          }
        in
        let good = tenant "good#0" tenant_a_src in
        let fleet = Jit.Serve.run ~limits:soak_limits [ good; bad ] in
        let fg = List.nth fleet 0 and fb = List.nth fleet 1 in
        Alcotest.(check bool) "bad tenant got blacklisted" true
          (fb.Jit.Serve.tr_blacklisted > 0);
        Alcotest.(check int) "good tenant blacklisted nothing" 0
          fg.Jit.Serve.tr_blacklisted;
        (* the neighbor's numbers are those of its solo run *)
        match Jit.Serve.run ~limits:soak_limits [ good ] with
        | [ sg ] -> check_tenant_equal "good beside bad" fg sg
        | rs -> Alcotest.failf "solo run returned %d reports" (List.length rs));
    test "output digests tell workloads apart and are never MD5 of \"\"" (fun () ->
        (* neither bench prints, so a digest of the print buffer alone is
           the same empty-string MD5 for every tenant *)
        match
          output_digests
            (Jit.Serve.run ~limits:soak_limits
               [ tenant "a#0" tenant_a_src; tenant "b#0" tenant_b_src;
                 tenant "a#1" tenant_a_src ])
        with
        | [ a0; b0; a1 ] ->
            let empty = Digest.to_hex (Digest.string "") in
            Alcotest.(check bool) "a is not MD5(\"\")" true (a0 <> empty);
            Alcotest.(check bool) "b is not MD5(\"\")" true (b0 <> empty);
            Alcotest.(check bool) "different workloads differ" true (a0 <> b0);
            Alcotest.(check string) "replicas of one workload agree" a0 a1
        | ds -> Alcotest.failf "%d digests for 3 tenants" (List.length ds));
  ]

(* ---------- fleet timeline + SLO ---------- *)

(* The ISSUE-10 soak shape: chaos 0.2, bounded queue and cache, a fast
   sampling cadence so short test programs still produce many rows. *)
let timeline_limits : Jit.Serve.limits =
  { soak_limits with chaos_rate = 0.2 }

let timeline_run () : string list * Jit.Serve.tenant_report list =
  let tl, read = Obs.Timeline.memory ~interval:50 () in
  let tenants =
    [ tenant "a#0" tenant_a_src; tenant "b#0" tenant_b_src;
      tenant "a#1" tenant_a_src ]
  in
  let reports = Jit.Serve.run ~limits:timeline_limits ~timeline:tl tenants in
  (read (), reports)

let timeline_tests =
  [
    test "same-seed timelines under chaos are byte-identical; diff reports \
          zero drift"
      (fun () ->
        let l1, _ = timeline_run () in
        let l2, _ = timeline_run () in
        Alcotest.(check bool) "rows collected" true (List.length l1 > 10);
        Alcotest.(check (list string)) "byte-identical" l1 l2;
        Alcotest.(check int) "diff_lines agrees: zero drift" 0
          (List.length (Obs.Diff.diff_lines l1 l2)));
    test "sampling is passive: tenant reports identical with and without a \
          timeline"
      (fun () ->
        let _, with_tl = timeline_run () in
        let bare =
          Jit.Serve.run ~limits:timeline_limits
            [ tenant "a#0" tenant_a_src; tenant "b#0" tenant_b_src;
              tenant "a#1" tenant_a_src ]
        in
        List.iter2
          (fun (f : Jit.Serve.tenant_report) s ->
            check_tenant_equal (f.tr_id ^ " with timeline") f s)
          with_tl bare);
    test "sample rows carry per-tenant gauges; fleet rows carry ordered \
          percentiles"
      (fun () ->
        let lines, reports = timeline_run () in
        match Obs.Timeline.rows_of_lines lines with
        | Error e -> Alcotest.fail e
        | Ok rows ->
            let samples, rest =
              List.partition
                (fun (r : Obs.Timeline.row) -> r.r_kind = "timeline_sample")
                rows
            in
            let fleets =
              List.filter
                (fun (r : Obs.Timeline.row) -> r.r_kind = "timeline_fleet")
                rest
            in
            Alcotest.(check bool) "has samples" true (samples <> []);
            Alcotest.(check bool) "has fleet rows" true (fleets <> []);
            (* every tenant sampled at least once, under its own id *)
            List.iter
              (fun (r : Jit.Serve.tenant_report) ->
                Alcotest.(check bool) (r.tr_id ^ " sampled") true
                  (List.exists
                     (fun (s : Obs.Timeline.row) -> s.r_source = r.tr_id)
                     samples))
              reports;
            (* seq is the dense global emission order *)
            List.iteri
              (fun i (r : Obs.Timeline.row) ->
                Alcotest.(check int) "dense seq" i r.r_seq)
              rows;
            let last = List.nth fleets (List.length fleets - 1) in
            let g n =
              match Obs.Timeline.field last n with
              | Some v -> v
              | None -> Alcotest.failf "fleet row lacks %s" n
            in
            Alcotest.(check int) "tenant count" 3 (g "tenants");
            let p50 = g "queue_wait_p50" and p90 = g "queue_wait_p90" in
            let p99 = g "queue_wait_p99" and pmax = g "queue_wait_max" in
            Alcotest.(check bool) "p50<=p90<=p99<=max" true
              (p50 <= p90 && p90 <= p99 && p99 <= pmax));
    test "tight SLO specs fire deterministically over the fleet's timeline"
      (fun () ->
        let check ?specs () =
          match Obs.Slo.check_lines ?specs (fst (timeline_run ())) with
          | Ok vs -> vs
          | Error e -> Alcotest.fail e
        in
        let tight =
          [
            Obs.Slo.queue_saturation ~window:1_000_000 ~limit:0 ();
            Obs.Slo.cache_thrash ~limit:0 ();
          ]
        in
        let v1 = check ~specs:tight () in
        Alcotest.(check bool) "starved fleet trips the monitors" true
          (v1 <> []);
        Alcotest.(check bool) "violations are byte-identical across reruns"
          true
          (v1 = check ~specs:tight ());
        (* the default thresholds stay quiet on this small soak *)
        Alcotest.(check int) "defaults quiet" 0 (List.length (check ())));
    test "unbounded fleet rows sum the tenants' resident code" (fun () ->
        (* with no cache bound a tenant's residency is its installed code,
           and the fleet row totals exactly what the tenants report *)
        let tl, read = Obs.Timeline.memory ~interval:50 () in
        let reports =
          Jit.Serve.run ~timeline:tl
            [ tenant "a#0" tenant_a_src; tenant "b#0" tenant_b_src ]
        in
        match Obs.Timeline.rows_of_lines (read ()) with
        | Error e -> Alcotest.fail e
        | Ok rows ->
            let fleets =
              List.filter
                (fun (r : Obs.Timeline.row) -> r.r_kind = "timeline_fleet")
                rows
            in
            let last = List.nth fleets (List.length fleets - 1) in
            let used =
              List.fold_left
                (fun acc (r : Jit.Serve.tenant_report) -> acc + r.tr_cache_used)
                0 reports
            in
            Alcotest.(check bool) "tenants hold code" true (used > 0);
            Alcotest.(check (option int)) "fleet cache_used" (Some used)
              (Obs.Timeline.field last "cache_used"));
    test "p90 and max percentiles are exact ranks" (fun () ->
        let xs = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] in
        let p50, p90, p99, pmax = Support.Stats.percentiles xs in
        Alcotest.(check int) "p50" 5 p50;
        Alcotest.(check int) "p90" 9 p90;
        Alcotest.(check int) "p99" 10 p99;
        Alcotest.(check int) "max" 10 pmax);
  ]

let () =
  Alcotest.run "serve"
    [
      ("scheduler", scheduler_tests);
      ("codecache", codecache_tests);
      ( "codecache-properties",
        List.map QCheck_alcotest.to_alcotest [ cache_invariant_prop; cache_model_prop ] );
      ("engine", engine_tests);
      ( "engine-properties",
        List.map QCheck_alcotest.to_alcotest [ eviction_exactness_prop ] );
      ("serve", serve_tests);
      ("timeline", timeline_tests);
    ]
