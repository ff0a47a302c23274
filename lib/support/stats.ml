(* Small statistics helpers used by the benchmark harness to report
   mean/stddev in the same style as the paper's evaluation. *)

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: empty"
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
      let m = mean xs in
      let n = float_of_int (List.length xs) in
      let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
      sqrt (ss /. (n -. 1.0))

let geomean xs =
  match xs with
  | [] -> invalid_arg "Stats.geomean: empty"
  | _ ->
      let logs = List.map (fun x ->
        if x <= 0.0 then invalid_arg "Stats.geomean: non-positive value"
        else log x) xs
      in
      exp (mean logs)

let min_max xs =
  match xs with
  | [] -> invalid_arg "Stats.min_max: empty"
  | x :: rest ->
      List.fold_left (fun (lo, hi) v -> (min lo v, max hi v)) (x, x) rest

(* The paper: "we computed the average of the last 40% (but at most 20)
   repetitions" — steady-state window selection. *)
let steady_state_window xs =
  let n = List.length xs in
  if n = 0 then invalid_arg "Stats.steady_state_window: empty";
  let k = min 20 (max 1 (n * 40 / 100)) in
  let rec drop i = function
    | rest when i = 0 -> rest
    | [] -> []
    | _ :: tl -> drop (i - 1) tl
  in
  drop (n - k) xs

let steady_state_mean xs = mean (steady_state_window xs)

(* Exact rank percentile of an ascending int list: the smallest element
   whose rank reaches ceil(q * n); 0 on an empty list. The serving layer
   and the timeline's fleet snapshots share this so their percentile
   semantics can never drift apart. *)
let percentile (xs : int list) (q : float) : int =
  let n = List.length xs in
  if n = 0 then 0
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    List.nth xs (min (max rank 1) n - 1)

(* The fleet summary tuple: p50 / p90 / p99 / max of an ascending list
   (all 0 when empty). *)
let percentiles (xs : int list) : int * int * int * int =
  ( percentile xs 0.50,
    percentile xs 0.90,
    percentile xs 0.99,
    percentile xs 1.0 )

let median xs =
  match List.sort compare xs with
  | [] -> invalid_arg "Stats.median: empty"
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

type layout_verdict = Gain | Regression | Unattributed | Rejected | Too_few_pairs

type layout_summary = {
  parent_layouts : float list;
  change_layouts : float list;
  parent_median : float;
  change_median : float;
  parent_spread : float;
  change_spread : float;
  pairs : int;
  wins : int;
  losses : int;
  verdict : layout_verdict;
}

(* Round [r] pairs the median over the parent's layouts of their [r]-th
   samples with the same median of the change's, so every pair sees
   both sides in every layout. A move counts only over at least 10
   pairs, when 9 of every 10 agree on its direction and the gap between
   the medians over layouts exceeds what layout alone moved either side
   (the larger spread between its layouts' medians). *)
let compare_layouts ~(parent : float list list) ~(change : float list list) :
    layout_summary =
  let rounds side =
    match side with
    | [] -> invalid_arg "Stats.compare_layouts: no layout"
    | l :: rest ->
        let n = List.length l in
        if n = 0 then invalid_arg "Stats.compare_layouts: no round";
        if List.exists (fun l' -> List.length l' <> n) rest then
          invalid_arg "Stats.compare_layouts: layouts ran different rounds";
        n
  in
  let pairs = rounds parent in
  if rounds change <> pairs then
    invalid_arg "Stats.compare_layouts: sides ran different rounds";
  let round_median side r = median (List.map (fun l -> List.nth l r) side) in
  let wins = ref 0 and losses = ref 0 in
  for r = 0 to pairs - 1 do
    let p = round_median parent r and c = round_median change r in
    if c < p then incr wins else if c > p then incr losses
  done;
  let parent_layouts = List.map median parent
  and change_layouts = List.map median change in
  let spread xs = let lo, hi = min_max xs in hi -. lo in
  let parent_median = median parent_layouts
  and change_median = median change_layouts in
  let parent_spread = spread parent_layouts
  and change_spread = spread change_layouts in
  let noise = Float.max parent_spread change_spread in
  let agree n = n * 10 >= pairs * 9 in
  let verdict =
    if pairs < 10 then Too_few_pairs
    else if agree !wins then
      if parent_median -. change_median > noise then Gain else Unattributed
    else if agree !losses then
      if change_median -. parent_median > noise then Regression else Unattributed
    else Rejected
  in
  {
    parent_layouts;
    change_layouts;
    parent_median;
    change_median;
    parent_spread;
    change_spread;
    pairs;
    wins = !wins;
    losses = !losses;
    verdict;
  }

let verdict_to_string = function
  | Gain -> "gain"
  | Regression -> "regression"
  | Unattributed -> "unattributed"
  | Rejected -> "rejected"
  | Too_few_pairs -> "too few pairs"
