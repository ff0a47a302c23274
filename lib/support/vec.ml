(* Growable array. OCaml 5.1 lacks Stdlib.Dynarray, so we roll a minimal
   version with the operations the IR stores need. *)

type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a; (* used to fill unreached slots *)
}

let create ~dummy = { data = Array.make 8 dummy; len = 0; dummy }

let length v = v.len

let is_empty v = v.len = 0

let ensure_capacity v n =
  if n > Array.length v.data then begin
    let cap = ref (max 8 (Array.length v.data)) in
    while !cap < n do
      cap := !cap * 2
    done;
    let data = Array.make !cap v.dummy in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end

let push v x =
  ensure_capacity v (v.len + 1);
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get: index out of bounds";
  v.data.(i)

let set v i x =
  if i < 0 || i >= v.len then invalid_arg "Vec.set: index out of bounds";
  v.data.(i) <- x

let pop v =
  if v.len = 0 then invalid_arg "Vec.pop: empty";
  v.len <- v.len - 1;
  let x = v.data.(v.len) in
  v.data.(v.len) <- v.dummy;
  x

let clear v =
  Array.fill v.data 0 v.len v.dummy;
  v.len <- 0

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i v.data.(i)
  done

let fold_left f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let exists p v =
  let rec loop i = i < v.len && (p v.data.(i) || loop (i + 1)) in
  loop 0

let to_list v = List.init v.len (fun i -> v.data.(i))

let of_list ~dummy xs =
  let v = create ~dummy in
  List.iter (push v) xs;
  v

let copy v = { data = Array.sub v.data 0 (Array.length v.data); len = v.len; dummy = v.dummy }

(* One array of the source's capacity, filled once: no growth by
   doubling. *)
let map ~dummy f v =
  let data = Array.make (Array.length v.data) dummy in
  for i = 0 to v.len - 1 do
    data.(i) <- f v.data.(i)
  done;
  { data; len = v.len; dummy }
