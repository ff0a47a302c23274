(* Unit tests for the support library: Vec, Rng, Stats, Json. *)

open Util

let vec_tests =
  [
    test "push/get/length" (fun () ->
        let v = Support.Vec.create ~dummy:0 in
        Alcotest.(check int) "empty" 0 (Support.Vec.length v);
        Support.Vec.push v 10;
        Support.Vec.push v 20;
        Alcotest.(check int) "len" 2 (Support.Vec.length v);
        Alcotest.(check int) "get0" 10 (Support.Vec.get v 0);
        Alcotest.(check int) "get1" 20 (Support.Vec.get v 1));
    test "set" (fun () ->
        let v = Support.Vec.of_list ~dummy:0 [ 1; 2; 3 ] in
        Support.Vec.set v 1 99;
        Alcotest.(check (list int)) "list" [ 1; 99; 3 ] (Support.Vec.to_list v));
    test "growth beyond initial capacity" (fun () ->
        let v = Support.Vec.create ~dummy:(-1) in
        for i = 0 to 99 do
          Support.Vec.push v i
        done;
        Alcotest.(check int) "len" 100 (Support.Vec.length v);
        Alcotest.(check int) "last" 99 (Support.Vec.get v 99);
        Alcotest.(check int) "first" 0 (Support.Vec.get v 0));
    test "pop" (fun () ->
        let v = Support.Vec.of_list ~dummy:0 [ 1; 2 ] in
        Alcotest.(check int) "pop" 2 (Support.Vec.pop v);
        Alcotest.(check int) "len" 1 (Support.Vec.length v));
    test "out-of-bounds get raises" (fun () ->
        let v = Support.Vec.of_list ~dummy:0 [ 1 ] in
        Alcotest.check_raises "get 1" (Invalid_argument "Vec.get: index out of bounds")
          (fun () -> ignore (Support.Vec.get v 1)));
    test "pop empty raises" (fun () ->
        let v = Support.Vec.create ~dummy:0 in
        Alcotest.check_raises "pop" (Invalid_argument "Vec.pop: empty") (fun () ->
            ignore (Support.Vec.pop v)));
    test "iteri order" (fun () ->
        let v = Support.Vec.of_list ~dummy:0 [ 5; 6; 7 ] in
        let acc = ref [] in
        Support.Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
        Alcotest.(check (list (pair int int)))
          "pairs" [ (0, 5); (1, 6); (2, 7) ] (List.rev !acc));
    test "fold_left" (fun () ->
        let v = Support.Vec.of_list ~dummy:0 [ 1; 2; 3; 4 ] in
        Alcotest.(check int) "sum" 10 (Support.Vec.fold_left ( + ) 0 v));
    test "exists" (fun () ->
        let v = Support.Vec.of_list ~dummy:0 [ 1; 2; 3 ] in
        Alcotest.(check bool) "has 2" true (Support.Vec.exists (( = ) 2) v);
        Alcotest.(check bool) "no 9" false (Support.Vec.exists (( = ) 9) v));
    test "copy is independent" (fun () ->
        let v = Support.Vec.of_list ~dummy:0 [ 1; 2 ] in
        let w = Support.Vec.copy v in
        Support.Vec.set w 0 42;
        Alcotest.(check int) "original intact" 1 (Support.Vec.get v 0));
    test "clear" (fun () ->
        let v = Support.Vec.of_list ~dummy:0 [ 1; 2 ] in
        Support.Vec.clear v;
        Alcotest.(check bool) "empty" true (Support.Vec.is_empty v));
  ]

let rng_tests =
  [
    test "deterministic for equal seeds" (fun () ->
        let a = Support.Rng.create 42 and b = Support.Rng.create 42 in
        for _ = 1 to 10 do
          Alcotest.(check int) "same" (Support.Rng.int a 1000) (Support.Rng.int b 1000)
        done);
    test "different seeds differ" (fun () ->
        let a = Support.Rng.create 1 and b = Support.Rng.create 2 in
        let xs = List.init 8 (fun _ -> Support.Rng.int a 1_000_000) in
        let ys = List.init 8 (fun _ -> Support.Rng.int b 1_000_000) in
        Alcotest.(check bool) "sequences differ" true (xs <> ys));
    test "int respects bound" (fun () ->
        let g = Support.Rng.create 7 in
        for _ = 1 to 1000 do
          let x = Support.Rng.int g 17 in
          if x < 0 || x >= 17 then Alcotest.failf "out of range: %d" x
        done);
    test "int rejects non-positive bound" (fun () ->
        let g = Support.Rng.create 7 in
        Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
          (fun () -> ignore (Support.Rng.int g 0)));
    test "float in [0,1)" (fun () ->
        let g = Support.Rng.create 13 in
        for _ = 1 to 1000 do
          let x = Support.Rng.float g in
          if x < 0.0 || x >= 1.0 then Alcotest.failf "out of range: %f" x
        done);
    test "pick from singleton" (fun () ->
        let g = Support.Rng.create 3 in
        Alcotest.(check int) "only" 5 (Support.Rng.pick g [ 5 ]));
    test "shuffle preserves elements" (fun () ->
        let g = Support.Rng.create 11 in
        let xs = [ 1; 2; 3; 4; 5; 6 ] in
        Alcotest.(check (list int))
          "sorted" xs
          (List.sort compare (Support.Rng.shuffle g xs)));
    test "copy forks the stream" (fun () ->
        let a = Support.Rng.create 9 in
        ignore (Support.Rng.int a 10);
        let b = Support.Rng.copy a in
        Alcotest.(check int) "same next" (Support.Rng.int a 1000) (Support.Rng.int b 1000));
  ]

let stats_tests =
  [
    test "mean" (fun () ->
        Alcotest.(check (float 1e-9)) "mean" 2.0 (Support.Stats.mean [ 1.0; 2.0; 3.0 ]));
    test "stddev of constant series is 0" (fun () ->
        Alcotest.(check (float 1e-9)) "std" 0.0 (Support.Stats.stddev [ 5.0; 5.0; 5.0 ]));
    test "stddev simple" (fun () ->
        (* sample stddev of [2,4] = sqrt(2) *)
        Alcotest.(check (float 1e-9)) "std" (sqrt 2.0) (Support.Stats.stddev [ 2.0; 4.0 ]));
    test "geomean" (fun () ->
        Alcotest.(check (float 1e-9)) "geo" 2.0 (Support.Stats.geomean [ 1.0; 4.0 ]));
    test "geomean rejects non-positive" (fun () ->
        Alcotest.check_raises "neg" (Invalid_argument "Stats.geomean: non-positive value")
          (fun () -> ignore (Support.Stats.geomean [ 1.0; -1.0 ])));
    test "min_max" (fun () ->
        let lo, hi = Support.Stats.min_max [ 3.0; 1.0; 2.0 ] in
        Alcotest.(check (float 0.0)) "lo" 1.0 lo;
        Alcotest.(check (float 0.0)) "hi" 3.0 hi);
    test "steady-state window takes last 40%" (fun () ->
        let xs = List.init 10 float_of_int in
        Alcotest.(check (list (float 0.0)))
          "window" [ 6.0; 7.0; 8.0; 9.0 ]
          (Support.Stats.steady_state_window xs));
    test "steady-state window caps at 20" (fun () ->
        let xs = List.init 100 float_of_int in
        Alcotest.(check int) "len" 20
          (List.length (Support.Stats.steady_state_window xs)));
    test "steady-state of single sample" (fun () ->
        Alcotest.(check (list (float 0.0))) "one" [ 7.0 ]
          (Support.Stats.steady_state_window [ 7.0 ]));
    test "steady-state of two samples keeps the last" (fun () ->
        (* 40% of 2 rounds down to 0; the window floor is 1 sample *)
        Alcotest.(check (list (float 0.0))) "two" [ 9.0 ]
          (Support.Stats.steady_state_window [ 3.0; 9.0 ]));
    test "steady-state window beyond the cap is the last 20" (fun () ->
        let xs = List.init 60 float_of_int in
        let w = Support.Stats.steady_state_window xs in
        Alcotest.(check int) "len" 20 (List.length w);
        Alcotest.(check (float 0.0)) "starts at 40" 40.0 (List.hd w);
        Alcotest.(check (float 0.0)) "ends at 59" 59.0 (List.nth w 19));
    test "steady-state at the cap boundary" (fun () ->
        (* n=50: 40% = 20 exactly; n=51: 40% rounds down to 20 *)
        Alcotest.(check int) "n=50" 20
          (List.length (Support.Stats.steady_state_window (List.init 50 float_of_int)));
        Alcotest.(check int) "n=51" 20
          (List.length (Support.Stats.steady_state_window (List.init 51 float_of_int))));
    test "steady-state of empty raises" (fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Stats.steady_state_window: empty") (fun () ->
            ignore (Support.Stats.steady_state_window [])));
    test "mean of empty raises" (fun () ->
        Alcotest.check_raises "empty" (Invalid_argument "Stats.mean: empty") (fun () ->
            ignore (Support.Stats.mean [])));
    test "median of odd and even lists" (fun () ->
        Alcotest.(check (float 0.0)) "odd" 2.0 (Support.Stats.median [ 3.0; 1.0; 2.0 ]);
        Alcotest.(check (float 0.0)) "even" 2.5
          (Support.Stats.median [ 4.0; 1.0; 3.0; 2.0 ]));
  ]

(* ---------- Stats.compare_layouts: the layout driver's verdict ---------- *)

(* [rounds] (10 by default) rounds of each layout: [base] plus the
   layout's offset, plus [bump r] in round [r]. *)
let layouts ?(rounds = 10) ?(bump = fun _ -> 0.0) (base : float) (offsets : float list) :
    float list list =
  List.map (fun off -> List.init rounds (fun r -> base +. off +. bump r)) offsets

let check_verdict what expected ~parent ~change =
  let s = Support.Stats.compare_layouts ~parent ~change in
  Alcotest.(check string) what expected (Support.Stats.verdict_to_string s.verdict);
  s

let layout_tests =
  [
    test "a gain beyond the layout spread is a gain" (fun () ->
        let s =
          check_verdict "verdict" "gain"
            ~parent:(layouts 1.00 [ 0.0; 0.01; 0.02 ])
            ~change:(layouts 0.90 [ 0.0; 0.01; 0.02 ])
        in
        Alcotest.(check int) "wins" 10 s.wins;
        Alcotest.(check (float 1e-9)) "parent median" 1.01 s.parent_median;
        Alcotest.(check (float 1e-9)) "change median" 0.91 s.change_median;
        Alcotest.(check (float 1e-9)) "spread" 0.02 s.parent_spread);
    test "a gain inside the layout spread is unattributed" (fun () ->
        (* every pair wins, but layout alone moves the parent by 0.10 *)
        let s =
          check_verdict "verdict" "unattributed"
            ~parent:(layouts 1.00 [ 0.0; 0.05; 0.10 ])
            ~change:(layouts 0.97 [ 0.0; 0.05; 0.10 ])
        in
        Alcotest.(check int) "wins" 10 s.wins);
    test "8 of 10 pair wins are rejected" (fun () ->
        let s =
          check_verdict "verdict" "rejected"
            ~parent:(layouts 1.00 [ 0.0; 0.01; 0.02 ])
            ~change:
              (layouts 0.90 [ 0.0; 0.01; 0.02 ] ~bump:(fun r ->
                   if r < 2 then 0.20 else 0.0))
        in
        Alcotest.(check (pair int int)) "wins, losses" (8, 2) (s.wins, s.losses);
        Alcotest.(check bool) "the medians alone would call a gain" true
          (s.parent_median -. s.change_median > s.parent_spread));
    test "a slowdown beyond the layout spread is a regression" (fun () ->
        let s =
          check_verdict "verdict" "regression"
            ~parent:(layouts 1.00 [ 0.0; 0.01; 0.02 ] ~bump:(fun r -> 0.001 *. float_of_int r))
            ~change:(layouts 1.10 [ 0.0; 0.01; 0.02 ])
        in
        Alcotest.(check int) "losses" 10 s.losses);
    test "3 of 3 pair wins are too few pairs" (fun () ->
        (* the gap is ten times the spread, but 3 rounds credit nothing *)
        let s =
          check_verdict "verdict" "too few pairs"
            ~parent:(layouts ~rounds:3 1.00 [ 0.0; 0.01; 0.02 ])
            ~change:(layouts ~rounds:3 0.80 [ 0.0; 0.01; 0.02 ])
        in
        Alcotest.(check (pair int int)) "wins of pairs" (3, 3) (s.wins, s.pairs));
    test "sides must run the same rounds" (fun () ->
        Alcotest.check_raises "uneven"
          (Invalid_argument "Stats.compare_layouts: sides ran different rounds")
          (fun () ->
            ignore
              (Support.Stats.compare_layouts ~parent:[ [ 1.0; 1.0 ] ] ~change:[ [ 1.0 ] ])));
  ]

(* ---------- Json: the emitter the trace sink depends on ---------- *)

let json_str j = Support.Json.to_string j

let json_tests =
  let open Support.Json in
  [
    test "scalars render" (fun () ->
        Alcotest.(check string) "null" "null" (json_str Null);
        Alcotest.(check string) "true" "true" (json_str (Bool true));
        Alcotest.(check string) "int" "-42" (json_str (Int (-42)));
        Alcotest.(check string) "string" "\"hi\"" (json_str (String "hi")));
    test "control characters escape" (fun () ->
        Alcotest.(check string) "newline/tab/cr" "\"a\\nb\\tc\\rd\""
          (json_str (String "a\nb\tc\rd"));
        Alcotest.(check string) "quote and backslash" "\"q\\\"b\\\\e\""
          (json_str (String "q\"b\\e"));
        (* other control chars take the \u form *)
        Alcotest.(check string) "\\u0001" "\"\\u0001\"" (json_str (String "\001"));
        Alcotest.(check string) "\\u001f" "\"\\u001f\"" (json_str (String "\031")));
    test "non-finite floats become null" (fun () ->
        Alcotest.(check string) "nan" "null" (json_str (Float Float.nan));
        Alcotest.(check string) "inf" "null" (json_str (Float Float.infinity));
        Alcotest.(check string) "-inf" "null" (json_str (Float Float.neg_infinity));
        Alcotest.(check bool) "finite stays numeric" true
          (json_str (Float 1.5) = "1.5"));
    test "nested rendering" (fun () ->
        Alcotest.(check string) "obj"
          "{\"a\": [1, 2], \"b\": {\"c\": null}}"
          (json_str (Obj [ ("a", List [ Int 1; Int 2 ]); ("b", Obj [ ("c", Null) ]) ])));
    test "parse round-trips what we emit" (fun () ->
        let samples =
          [
            Null;
            Bool false;
            Int 123;
            Int (-7);
            Float 3.25;
            String "control \001 and \"quotes\" and \\slashes\n";
            List [ Int 1; String "x"; Obj [] ];
            Obj [ ("ev", String "install"); ("cycles", Int 99); ("xs", List [ Null ]) ];
          ]
        in
        List.iter
          (fun j ->
            match of_string (json_str j) with
            | Ok j' -> Alcotest.(check string) "round trip" (json_str j) (json_str j')
            | Error e -> Alcotest.failf "did not parse %s: %s" (json_str j) e)
          samples);
    test "parse handles whitespace and empty containers" (fun () ->
        Alcotest.(check bool) "empty obj" true (of_string " { } " = Ok (Obj []));
        Alcotest.(check bool) "empty list" true (of_string "[]" = Ok (List []));
        Alcotest.(check bool) "spaced" true
          (of_string "{ \"a\" : [ 1 , 2 ] }" = Ok (Obj [ ("a", List [ Int 1; Int 2 ]) ])));
    test "parse rejects malformed input" (fun () ->
        List.iter
          (fun bad ->
            match of_string bad with
            | Ok _ -> Alcotest.failf "accepted %S" bad
            | Error _ -> ())
          [ ""; "{"; "[1,]"; "nul"; "\"unterminated"; "{\"a\" 1}"; "1 2"; "{}}" ]);
    test "member and accessors" (fun () ->
        let j = Obj [ ("ev", String "install"); ("size", Int 9) ] in
        Alcotest.(check (option int)) "size" (Some 9)
          (Option.bind (member "size" j) to_int_opt);
        Alcotest.(check (option string)) "ev" (Some "install")
          (Option.bind (member "ev" j) to_string_opt);
        Alcotest.(check bool) "missing" true (member "nope" j = None);
        Alcotest.(check bool) "non-object" true (member "x" (Int 1) = None));
  ]

let fuel_tests =
  [
    test "disabled: spend is free, remaining is None" (fun () ->
        Alcotest.(check bool) "disabled" false (Support.Fuel.enabled ());
        Support.Fuel.spend 1_000_000;
        Alcotest.(check bool) "no budget" true (Support.Fuel.remaining () = None));
    test "budget exhausts exactly past its limit" (fun () ->
        let spent = ref 0 in
        (match
           Support.Fuel.with_budget 3 (fun () ->
               for _ = 1 to 10 do
                 Support.Fuel.spend 1;
                 incr spent
               done)
         with
        | () -> Alcotest.fail "expected exhaustion"
        | exception Support.Fuel.Exhausted -> ());
        (* 3 paid checkpoints pass; the 4th drives remaining below zero *)
        Alcotest.(check int) "checkpoints before abort" 3 !spent;
        Alcotest.(check bool) "uninstalled after scope" false
          (Support.Fuel.enabled ()));
    test "nested budgets restore the outer one" (fun () ->
        Support.Fuel.with_budget 100 (fun () ->
            (match
               Support.Fuel.with_budget 1 (fun () ->
                   Support.Fuel.spend 5)
             with
            | () -> Alcotest.fail "inner should exhaust"
            | exception Support.Fuel.Exhausted -> ());
            Alcotest.(check bool) "outer budget intact" true
              (Support.Fuel.remaining () = Some 100)));
    test "sufficient budget returns the result" (fun () ->
        let r = Support.Fuel.with_budget 5 (fun () -> Support.Fuel.spend 5; 42) in
        Alcotest.(check int) "result" 42 r);
  ]

let chaos_plan_tests =
  [
    test "disabled: roll never fires" (fun () ->
        Alcotest.(check bool) "disabled" false (Support.Chaos.enabled ());
        for _ = 1 to 100 do
          Alcotest.(check bool) "no fault" false
            (Support.Chaos.roll Support.Chaos.Compiler_crash)
        done;
        Alcotest.(check int) "starved fuel is 0 when disabled" 0
          (Support.Chaos.starved_fuel ()));
    test "rate bounds are validated" (fun () ->
        List.iter
          (fun rate ->
            match Support.Chaos.install ~seed:1 ~rate with
            | () -> Alcotest.failf "accepted rate %f" rate
            | exception Invalid_argument _ -> ())
          [ -0.1; 1.5; Float.nan ]);
    test "same seed replays the same roll sequence" (fun () ->
        let draws seed =
          Support.Chaos.scoped ~seed ~rate:0.5 (fun () ->
              List.init 64 (fun _ -> Support.Chaos.roll Support.Chaos.Verifier_reject))
        in
        Alcotest.(check (list bool)) "deterministic" (draws 9) (draws 9);
        Alcotest.(check bool) "rate 0 never fires" true
          (Support.Chaos.scoped ~seed:9 ~rate:0.0 (fun () ->
               List.for_all not
                 (List.init 64 (fun _ ->
                      Support.Chaos.roll Support.Chaos.Compiler_crash))));
        Alcotest.(check bool) "rate 1 always fires" true
          (Support.Chaos.scoped ~seed:9 ~rate:1.0 (fun () ->
               List.for_all Fun.id
                 (List.init 64 (fun _ ->
                      Support.Chaos.roll Support.Chaos.Fuel_exhaustion)))));
    test "plan counts rolls and injections" (fun () ->
        Support.Chaos.scoped ~seed:3 ~rate:0.5 (fun () ->
            for _ = 1 to 50 do
              ignore (Support.Chaos.roll Support.Chaos.Invalidation_storm)
            done;
            match Support.Chaos.plan () with
            | None -> Alcotest.fail "plan missing"
            | Some p ->
                Alcotest.(check int) "rolls" 50 p.rolls;
                Alcotest.(check bool) "some injected" true (p.injected > 0);
                Alcotest.(check bool) "not all injected" true (p.injected < 50)))
  ]

let io_tests =
  [
    test "write_atomic writes contents and leaves no temp" (fun () ->
        let path = Filename.temp_file "selvm_io" ".json" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            Support.Io.write_atomic path "{\"ok\":true}\n";
            let ic = open_in path in
            let line = input_line ic in
            close_in ic;
            Alcotest.(check string) "contents" "{\"ok\":true}" line;
            Alcotest.(check bool) "no temp file left" false
              (Sys.file_exists (Support.Io.tmp_path path))));
    test "a failing writer preserves the previous contents" (fun () ->
        let path = Filename.temp_file "selvm_io" ".json" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            Support.Io.write_atomic path "old contents";
            (match
               Support.Io.with_atomic_out path (fun oc ->
                   output_string oc "partial garbage";
                   failwith "interrupted")
             with
            | () -> Alcotest.fail "expected failure"
            | exception Failure _ -> ());
            let ic = open_in path in
            let line = input_line ic in
            close_in ic;
            Alcotest.(check string) "old contents intact" "old contents" line;
            Alcotest.(check bool) "no temp file left" false
              (Sys.file_exists (Support.Io.tmp_path path))));
    test "a failing writer creates nothing when no file existed" (fun () ->
        let dir = Filename.get_temp_dir_name () in
        let path = Filename.concat dir "selvm_io_absent.json" in
        (try Sys.remove path with Sys_error _ -> ());
        (match
           Support.Io.with_atomic_out path (fun _ -> failwith "interrupted")
         with
        | () -> Alcotest.fail "expected failure"
        | exception Failure _ -> ());
        Alcotest.(check bool) "target absent" false (Sys.file_exists path);
        Alcotest.(check bool) "temp absent" false
          (Sys.file_exists (Support.Io.tmp_path path)));
  ]

let () =
  Alcotest.run "support"
    [
      ("vec", vec_tests);
      ("rng", rng_tests);
      ("stats", stats_tests @ layout_tests);
      ("json", json_tests);
      ("fuel", fuel_tests);
      ("chaos", chaos_plan_tests);
      ("io", io_tests);
    ]
