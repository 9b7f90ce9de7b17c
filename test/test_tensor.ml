(* Tests for the tensor substrate (lib/tensor). *)

module Dtype = Nnsmith_tensor.Dtype
module Shape = Nnsmith_tensor.Shape
module Nd = Nnsmith_tensor.Nd
module T = Nnsmith_tensor.Transform
module R = Nnsmith_tensor.Reduce
module L = Nnsmith_tensor.Linalg

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

let nd dims xs = Nd.of_floats Dtype.F64 (Array.of_list dims) (Array.of_list xs)
let values t = Array.init (Nd.numel t) (Nd.to_float t)

let check_values msg expected t =
  Alcotest.(check (array (float 1e-6))) msg (Array.of_list expected) (values t)

(* ------------------------------------------------------------------ *)
(* Dtype                                                               *)

let test_dtype_f32_rounding () =
  let x = 0.1 in
  let r = Dtype.round_f32 x in
  check "rounded differs" true (r <> x);
  Alcotest.(check (float 1e-6)) "close" x r;
  checkf "idempotent" r (Dtype.round_f32 r)

let test_dtype_i32_wrap () =
  check_int "in range" 42 (Dtype.wrap_i32 42);
  check_int "negative" (-7) (Dtype.wrap_i32 (-7));
  check_int "overflow wraps" (-2147483648) (Dtype.wrap_i32 2147483648);
  check_int "2^32 wraps to 0" 0 (Dtype.wrap_i32 (1 lsl 32))

let test_dtype_strings () =
  List.iter
    (fun d -> check "roundtrip" true (Dtype.of_string (Dtype.to_string d) = Some d))
    Dtype.all;
  check "bad" true (Dtype.of_string "f16" = None)

(* ------------------------------------------------------------------ *)
(* Shape                                                               *)

let test_shape_strides_ravel () =
  let s = [| 2; 3; 4 |] in
  Alcotest.(check (array int)) "strides" [| 12; 4; 1 |] (Shape.strides s);
  check_int "numel" 24 (Shape.numel s);
  check_int "ravel" 23 (Shape.ravel s [| 1; 2; 3 |]);
  Alcotest.(check (array int)) "unravel" [| 1; 2; 3 |] (Shape.unravel s 23)

let test_shape_broadcast () =
  let bc a b = Shape.broadcast (Array.of_list a) (Array.of_list b) in
  check "same" true (bc [ 2; 3 ] [ 2; 3 ] = Some [| 2; 3 |]);
  check "ones" true (bc [ 2; 1 ] [ 1; 3 ] = Some [| 2; 3 |]);
  check "rank promote" true (bc [ 3 ] [ 2; 3 ] = Some [| 2; 3 |]);
  check "scalar" true (bc [] [ 2; 3 ] = Some [| 2; 3 |]);
  check "incompatible" true (bc [ 2 ] [ 3 ] = None);
  check "can_broadcast_to" true
    (Shape.can_broadcast_to ~src:[| 1; 3 |] ~dst:[| 5; 3 |]);
  check "cannot" false (Shape.can_broadcast_to ~src:[| 5; 3 |] ~dst:[| 1; 3 |])

let qcheck_broadcast_commutes =
  QCheck.Test.make ~name:"broadcast is symmetric" ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_range 0 4) (int_range 1 4))
        (list_of_size Gen.(int_range 0 4) (int_range 1 4)))
    (fun (a, b) ->
      let sa = Array.of_list a and sb = Array.of_list b in
      Shape.broadcast sa sb = Shape.broadcast sb sa)

(* ------------------------------------------------------------------ *)
(* Nd basics                                                           *)

let test_nd_create_get_set () =
  let t = Nd.create Dtype.F32 [| 2; 2 |] in
  check_int "numel" 4 (Nd.numel t);
  Nd.set_f t 3 1.5;
  checkf "set/get" 1.5 (Nd.get_f t 3);
  let b = Nd.full_b [| 3 |] true in
  check "bool" true (Nd.get_b b 2);
  let i = Nd.full_i Dtype.I32 [| 2 |] 7 in
  check_int "int" 7 (Nd.get_i i 1);
  check_int "scalar numel" 1 (Nd.numel (Nd.scalar_f Dtype.F64 3.))

let test_nd_f32_normalisation () =
  let t = Nd.of_floats Dtype.F32 [| 1 |] [| 0.1 |] in
  checkf "stored as f32" (Dtype.round_f32 0.1) (Nd.get_f t 0)

let test_nd_map2_broadcast () =
  let a = nd [ 2; 2 ] [ 1.; 2.; 3.; 4. ] and b = nd [ 2 ] [ 10.; 20. ] in
  check_values "row broadcast" [ 11.; 22.; 13.; 24. ]
    (Nd.map2_f Dtype.F64 ( +. ) a b);
  let col = nd [ 2; 1 ] [ 10.; 20. ] in
  check_values "col broadcast" [ 11.; 12.; 23.; 24. ]
    (Nd.map2_f Dtype.F64 ( +. ) a col)

let test_nd_where () =
  let c = Nd.init_b [| 3 |] (fun i -> i mod 2 = 0) in
  let t = nd [ 3 ] [ 1.; 2.; 3. ] and f = nd [ 3 ] [ 9.; 9.; 9. ] in
  check_values "where" [ 1.; 9.; 3. ] (Nd.where c t f)

let test_nd_cast () =
  let t = nd [ 3 ] [ 1.7; -2.3; 0. ] in
  let i = Nd.cast t Dtype.I64 in
  check_int "trunc" 1 (Nd.get_i i 0);
  check_int "trunc neg" (-2) (Nd.get_i i 1);
  let b = Nd.cast t Dtype.Bool in
  check "nonzero true" true (Nd.get_b b 0);
  check "zero false" false (Nd.get_b b 2);
  let back = Nd.cast b Dtype.F32 in
  checkf "bool to float" 1. (Nd.get_f back 0)

let test_nd_bad_detection () =
  check "clean" false (Nd.has_bad (nd [ 2 ] [ 1.; 2. ]));
  check "nan" true (Nd.has_bad (nd [ 2 ] [ 1.; Float.nan ]));
  check "inf" true (Nd.has_bad (nd [ 2 ] [ Float.infinity; 2. ]));
  check_int "count" 2 (Nd.count_bad (nd [ 3 ] [ Float.nan; 1.; Float.neg_infinity ]));
  check "ints never bad" false (Nd.has_bad (Nd.full_i Dtype.I32 [| 2 |] 5))

let test_nd_approx_equal () =
  let a = nd [ 2 ] [ 1.; 100. ] in
  check "close" true (Nd.approx_equal a (nd [ 2 ] [ 1.0005; 100.5 ]));
  check "far" false (Nd.approx_equal a (nd [ 2 ] [ 1.5; 100. ]));
  check "nan both" true
    (Nd.approx_equal (nd [ 1 ] [ Float.nan ]) (nd [ 1 ] [ Float.nan ]));
  check "nan one side" false (Nd.approx_equal (nd [ 1 ] [ Float.nan ]) (nd [ 1 ] [ 1. ]));
  check "shape mismatch" false (Nd.approx_equal a (nd [ 1 ] [ 1. ]));
  check "rel err inf on nan" true
    (Nd.max_rel_error (nd [ 1 ] [ Float.nan ]) (nd [ 1 ] [ 1. ]) = infinity)

let test_nd_broadcast_to () =
  let t = nd [ 1; 2 ] [ 5.; 6. ] in
  check_values "expand" [ 5.; 6.; 5.; 6. ] (Nd.broadcast_to t [| 2; 2 |])

(* ------------------------------------------------------------------ *)
(* Transform                                                           *)

let test_reshape () =
  let t = nd [ 2; 3 ] [ 1.; 2.; 3.; 4.; 5.; 6. ] in
  let r = T.reshape t [| 3; 2 |] in
  check_values "row major preserved" [ 1.; 2.; 3.; 4.; 5.; 6. ] r;
  Alcotest.check_raises "numel mismatch"
    (Invalid_argument
       "Transform.reshape: [2x3] has 6 elements, target [4x2] has 8")
    (fun () -> ignore (T.reshape t [| 4; 2 |]))

let test_transpose () =
  let t = nd [ 2; 3 ] [ 1.; 2.; 3.; 4.; 5.; 6. ] in
  let r = T.transpose t [| 1; 0 |] in
  Alcotest.(check (array int)) "shape" [| 3; 2 |] (Nd.shape r);
  check_values "values" [ 1.; 4.; 2.; 5.; 3.; 6. ] r

let qcheck_transpose_involution =
  QCheck.Test.make ~name:"transpose by perm then inverse is identity"
    ~count:200
    QCheck.(int_range 0 10000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let rank = 1 + Random.State.int rng 3 in
      let dims = Array.init rank (fun _ -> 1 + Random.State.int rng 4) in
      let t =
        Nd.init_f Dtype.F64 dims (fun i -> float_of_int i)
      in
      let perm = Array.init rank Fun.id in
      for i = rank - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let tmp = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- tmp
      done;
      let inv = Array.make rank 0 in
      Array.iteri (fun i p -> inv.(p) <- i) perm;
      Nd.equal (T.transpose (T.transpose t perm) inv) t)

let test_slice () =
  let t = nd [ 4 ] [ 0.; 1.; 2.; 3. ] in
  check_values "middle" [ 1.; 2. ]
    (T.slice t ~starts:[| 1 |] ~stops:[| 3 |] ~steps:[| 1 |]);
  check_values "stride 2" [ 0.; 2. ]
    (T.slice t ~starts:[| 0 |] ~stops:[| 4 |] ~steps:[| 2 |]);
  check_values "negative start" [ 3. ]
    (T.slice t ~starts:[| -1 |] ~stops:[| 4 |] ~steps:[| 1 |])

let test_pad_constant () =
  let t = nd [ 2 ] [ 1.; 2. ] in
  check_values "pad both" [ 9.; 1.; 2.; 9.; 9. ]
    (T.pad t ~before:[| 1 |] ~after:[| 2 |] ~mode:(T.Constant 9.));
  check_values "negative crops" [ 2. ]
    (T.pad t ~before:[| -1 |] ~after:[| 0 |] ~mode:(T.Constant 0.))

let test_pad_reflect_replicate () =
  let t = nd [ 3 ] [ 1.; 2.; 3. ] in
  check_values "reflect" [ 3.; 2.; 1.; 2.; 3.; 2.; 1. ]
    (T.pad t ~before:[| 2 |] ~after:[| 2 |] ~mode:T.Reflect);
  check_values "replicate" [ 1.; 1.; 1.; 2.; 3.; 3. ]
    (T.pad t ~before:[| 2 |] ~after:[| 1 |] ~mode:T.Replicate);
  Alcotest.check_raises "reflect too large"
    (Invalid_argument "Transform.pad: reflect pad >= dim") (fun () ->
      ignore (T.pad t ~before:[| 3 |] ~after:[| 0 |] ~mode:T.Reflect))

let test_concat () =
  let a = nd [ 1; 2 ] [ 1.; 2. ] and b = nd [ 2; 2 ] [ 3.; 4.; 5.; 6. ] in
  let c = T.concat ~axis:0 [ a; b ] in
  Alcotest.(check (array int)) "shape" [| 3; 2 |] (Nd.shape c);
  check_values "values" [ 1.; 2.; 3.; 4.; 5.; 6. ] c;
  let d = T.concat ~axis:1 [ nd [ 2; 1 ] [ 1.; 2. ]; nd [ 2; 1 ] [ 3.; 4. ] ] in
  check_values "axis1" [ 1.; 3.; 2.; 4. ] d

let test_squeeze_unsqueeze_flatten () =
  let t = nd [ 1; 2; 1 ] [ 1.; 2. ] in
  Alcotest.(check (array int)) "squeeze all" [| 2 |] (Nd.shape (T.squeeze t []));
  Alcotest.(check (array int)) "squeeze one" [| 2; 1 |] (Nd.shape (T.squeeze t [ 0 ]));
  Alcotest.(check (array int)) "unsqueeze" [| 1; 1; 2; 1 |]
    (Nd.shape (T.unsqueeze t 0));
  let f = T.flatten (nd [ 2; 3; 4 ] (List.init 24 float_of_int)) ~axis:1 in
  Alcotest.(check (array int)) "flatten" [| 2; 12 |] (Nd.shape f)

(* ------------------------------------------------------------------ *)
(* Reduce                                                              *)

let t23 = nd [ 2; 3 ] [ 1.; 2.; 3.; 4.; 5.; 6. ]

let test_reduce_sum_mean () =
  check_values "sum axis0" [ 5.; 7.; 9. ] (R.sum ~axes:[ 0 ] t23);
  check_values "sum axis1" [ 6.; 15. ] (R.sum ~axes:[ 1 ] t23);
  check_values "sum all" [ 21. ] (R.sum ~axes:[] t23);
  check_values "mean" [ 2.; 5. ] (R.mean ~axes:[ 1 ] t23);
  Alcotest.(check (array int)) "keepdims" [| 2; 1 |]
    (Nd.shape (R.sum ~keepdims:true ~axes:[ 1 ] t23))

let test_reduce_extrema_prod () =
  check_values "max" [ 3.; 6. ] (R.max_ ~axes:[ 1 ] t23);
  check_values "min" [ 1.; 4. ] (R.min_ ~axes:[ 1 ] t23);
  check_values "prod" [ 6.; 120. ] (R.prod ~axes:[ 1 ] t23);
  (* NaN propagates *)
  let bad = nd [ 2 ] [ 1.; Float.nan ] in
  check "nan max" true (Float.is_nan (Nd.to_float (R.max_ ~axes:[ 0 ] bad) 0))

let test_argmax_argmin () =
  let am = R.argmax ~axis:1 t23 in
  check "i64" true (Nd.dtype am = Dtype.I64);
  check_int "argmax row0" 2 (Nd.get_i am 0);
  check_int "argmin" 0 (Nd.get_i (R.argmin ~axis:1 t23) 1);
  (* NaN counts as the extremum, numpy-style *)
  let withnan = nd [ 3 ] [ 1.; Float.nan; 5. ] in
  check_int "argmax nan" 1 (Nd.get_i (R.argmax ~axis:0 withnan) 0)

let test_softmax () =
  let s = R.softmax ~axis:1 t23 in
  checkf "row sums" 1. (Nd.to_float (R.sum ~axes:[ 1 ] s) 0);
  check "monotone" true (Nd.to_float s 2 > Nd.to_float s 0);
  (* stability: huge inputs stay finite *)
  let big = nd [ 2 ] [ 1000.; 1001. ] in
  check "stable" false (Nd.has_bad (R.softmax ~axis:0 big))

let qcheck_softmax_normalised =
  QCheck.Test.make ~name:"softmax rows sum to 1" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 8) (float_range (-20.) 20.))
    (fun xs ->
      let t = nd [ List.length xs ] xs in
      let s = R.softmax ~axis:0 t in
      Float.abs (Nd.to_float (R.sum ~axes:[ 0 ] s) 0 -. 1.) < 1e-6)

(* ------------------------------------------------------------------ *)
(* Linalg                                                              *)

let test_matmul_2d () =
  let a = nd [ 2; 2 ] [ 1.; 2.; 3.; 4. ] and b = nd [ 2; 2 ] [ 5.; 6.; 7.; 8. ] in
  check_values "2x2" [ 19.; 22.; 43.; 50. ] (L.matmul a b)

let test_matmul_rank1 () =
  let v = nd [ 3 ] [ 1.; 2.; 3. ] and m = nd [ 3; 2 ] [ 1.; 0.; 0.; 1.; 1.; 1. ] in
  check_values "vec.mat" [ 4.; 5. ] (L.matmul v m);
  Alcotest.(check (array int)) "shape" [| 2 |] (Nd.shape (L.matmul v m));
  check_values "vec.vec scalar" [ 14. ] (L.matmul v (nd [ 3 ] [ 1.; 2.; 3. ]));
  check_int "scalar rank" 0 (Nd.rank (L.matmul v v))

let test_matmul_batched () =
  let a = Nd.init_f Dtype.F64 [| 2; 2; 2 |] (fun i -> float_of_int i) in
  let b = nd [ 2; 2 ] [ 1.; 0.; 0.; 1. ] in
  (* batched identity multiplication *)
  check "batch id" true (Nd.equal (L.matmul a b) a);
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Linalg.matmul: contraction mismatch [3] vs [2x2]")
    (fun () -> ignore (L.matmul (nd [ 3 ] [ 1.; 2.; 3. ]) b))

let test_conv2d_identity () =
  let x = Nd.init_f Dtype.F64 [| 1; 1; 3; 3 |] (fun i -> float_of_int i) in
  let w = nd [ 1; 1; 1; 1 ] [ 1. ] in
  check "1x1 kernel id" true
    (Nd.equal (L.conv2d ~stride:(1, 1) ~padding:(0, 0) x w) x)

let test_conv2d_sum_kernel () =
  let x = Nd.init_f Dtype.F64 [| 1; 1; 3; 3 |] (fun _ -> 1.) in
  let w = Nd.init_f Dtype.F64 [| 1; 1; 2; 2 |] (fun _ -> 1.) in
  let y = L.conv2d ~stride:(1, 1) ~padding:(0, 0) x w in
  Alcotest.(check (array int)) "shape" [| 1; 1; 2; 2 |] (Nd.shape y);
  check_values "all 4" [ 4.; 4.; 4.; 4. ] y;
  let padded = L.conv2d ~stride:(1, 1) ~padding:(1, 1) x w in
  Alcotest.(check (array int)) "padded shape" [| 1; 1; 4; 4 |] (Nd.shape padded);
  checkf "corner sees 1 cell" 1. (Nd.get_f padded 0)

let test_conv2d_stride_channels () =
  let x = Nd.init_f Dtype.F64 [| 1; 2; 4; 4 |] (fun _ -> 1.) in
  let w = Nd.init_f Dtype.F64 [| 3; 2; 2; 2 |] (fun _ -> 1.) in
  let y = L.conv2d ~stride:(2, 2) ~padding:(0, 0) x w in
  Alcotest.(check (array int)) "shape" [| 1; 3; 2; 2 |] (Nd.shape y);
  checkf "sums both channels" 8. (Nd.get_f y 0);
  let bias = nd [ 3 ] [ 10.; 20.; 30. ] in
  let yb = L.conv2d ~bias ~stride:(2, 2) ~padding:(0, 0) x w in
  checkf "bias channel 1" 28. (Nd.get_f yb 4)

let test_pool2d () =
  let x =
    Nd.of_floats Dtype.F64 [| 1; 1; 2; 2 |] [| 1.; 2.; 3.; 4. |]
  in
  let mx = L.pool2d ~kind:L.Max_pool ~kernel:(2, 2) ~stride:(2, 2) ~padding:(0, 0) x in
  check_values "max" [ 4. ] mx;
  let avg = L.pool2d ~kind:L.Avg_pool ~kernel:(2, 2) ~stride:(2, 2) ~padding:(0, 0) x in
  check_values "avg" [ 2.5 ] avg;
  (* avg excludes padded cells from the divisor (count_include_pad = 0) *)
  let avgp = L.pool2d ~kind:L.Avg_pool ~kernel:(2, 2) ~stride:(2, 2) ~padding:(1, 1) x in
  checkf "corner avg over 1 cell" 1. (Nd.get_f avgp 0)

(* The full-sweep conv kernel [Linalg.conv2d_into] used before it clipped
   its windows, kept as the reference: every ci x kh x kw tap of a window is
   visited and bounds-tested, reading operands through [Nd.to_float]. *)
let conv2d_full_sweep ?bias ~stride ~padding input weight =
  let n, c, h, w, f, kh, kw, oh, ow =
    L.conv2d_dims ~stride ~padding input weight
  in
  let dst = Nd.create (Nd.dtype input) [| n; f; oh; ow |] in
  let sh, sw_ = stride and ph, pw = padding in
  let get_bias fo = match bias with None -> 0. | Some b -> Nd.to_float b fo in
  for li = 0 to (n * f * oh * ow) - 1 do
    let ow_i = li mod ow in
    let oh_i = li / ow mod oh in
    let f_i = li / (ow * oh) mod f in
    let n_i = li / (ow * oh * f) in
    let acc = ref (get_bias f_i) in
    for ci = 0 to c - 1 do
      for ki = 0 to kh - 1 do
        for kj = 0 to kw - 1 do
          let hi = (oh_i * sh) - ph + ki in
          let wi = (ow_i * sw_) - pw + kj in
          if hi >= 0 && hi < h && wi >= 0 && wi < w then begin
            let iv = Nd.to_float input ((((n_i * c) + ci) * h + hi) * w + wi) in
            let wv =
              Nd.to_float weight ((((f_i * c) + ci) * kh + ki) * kw + kj)
            in
            acc := !acc +. (iv *. wv)
          end
        done
      done
    done;
    Nd.set_f dst li !acc
  done;
  dst

(* The full-sweep pool kernel [Linalg.pool2d_into] used before it clipped
   its windows, kept as the reference: every one of the kh x kw window
   positions is visited and bounds-tested. *)
let pool2d_full_sweep ~kind ~kernel ~stride ~padding input =
  let n, c, h, w, oh, ow = L.pool2d_dims ~kernel ~stride ~padding input in
  let dst = Nd.create (Nd.dtype input) [| n; c; oh; ow |] in
  let kh, kw = kernel and sh, sw_ = stride and ph, pw = padding in
  for li = 0 to (n * c * oh * ow) - 1 do
    let ow_i = li mod ow in
    let oh_i = li / ow mod oh in
    let c_i = li / (ow * oh) mod c in
    let n_i = li / (ow * oh * c) in
    let acc =
      ref (match kind with L.Max_pool -> Float.neg_infinity | L.Avg_pool -> 0.)
    in
    let count = ref 0 in
    for ki = 0 to kh - 1 do
      for kj = 0 to kw - 1 do
        let hi = (oh_i * sh) - ph + ki and wi = (ow_i * sw_) - pw + kj in
        if hi >= 0 && hi < h && wi >= 0 && wi < w then begin
          let v = Nd.to_float input ((((n_i * c) + c_i) * h + hi) * w + wi) in
          incr count;
          acc :=
            (match kind with
            | L.Max_pool ->
                if Float.is_nan v || Float.is_nan !acc then Float.nan
                else Float.max !acc v
            | L.Avg_pool -> !acc +. v)
        end
      done
    done;
    Nd.set_f dst li
      (match kind with
      | L.Max_pool -> !acc
      | L.Avg_pool -> if !count = 0 then 0. else !acc /. float_of_int !count)
  done;
  dst

(* Random NCHW inputs drawn from values that stress the bit-identity
   argument (NaN, the infinities, -0.0 and exact ties), kernels up to
   larger than the input, strides 1-3, and every padding from -h to kh
   (beyond kh only adds more all-padding windows) that [pool2d_dims]
   accepts, including windows wider than the padded input that its
   truncating division lets through.  Clipped windows must equal the full
   sweep, and the include-pad average must equal zero-padding followed by
   an unpadded pool. *)
let qcheck_pool2d_matches_full_sweep =
  QCheck.Test.make ~name:"pool2d = full sweep, include-pad = pad then pool"
    ~count:300 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let int lo hi = lo + Random.State.int rng (hi - lo + 1) in
      let dtype = if Random.State.bool rng then Dtype.F32 else Dtype.F64 in
      let n = int 1 2 and c = int 1 2 and h = int 1 5 and w = int 1 5 in
      let pool =
        [| Float.nan; Float.infinity; Float.neg_infinity; -0.; 0.; 1.; 1.;
           -1.; 2.; 0.5 |]
      in
      let x =
        Nd.init_f dtype [| n; c; h; w |] (fun _ ->
            if Random.State.int rng 3 = 0 then Random.State.float rng 8. -. 4.
            else pool.(Random.State.int rng (Array.length pool)))
      in
      let kernel = (int 1 (h + 3), int 1 (w + 3))
      and stride = (int 1 3, int 1 3) in
      let kh, kw = kernel in
      let ok = ref true in
      for ph = -h to kh do
        for pw = -w to kw do
          let padding = (ph, pw) in
          match L.pool2d_dims ~kernel ~stride ~padding x with
          | exception Invalid_argument _ -> ()
          | _ ->
              List.iter
                (fun kind ->
                  if
                    not
                      (Nd.equal
                         (L.pool2d ~kind ~kernel ~stride ~padding x)
                         (pool2d_full_sweep ~kind ~kernel ~stride ~padding x))
                  then ok := false)
                [ L.Max_pool; L.Avg_pool ];
              (* a crop to nothing has no padded copy to compare with *)
              if h + (2 * ph) >= 1 && w + (2 * pw) >= 1 then begin
                let padded =
                  T.pad x ~before:[| 0; 0; ph; pw |] ~after:[| 0; 0; ph; pw |]
                    ~mode:(T.Constant 0.)
                in
                if
                  not
                    (Nd.equal
                       (L.avg_pool2d_include_pad ~kernel ~stride ~padding x)
                       (L.pool2d ~kind:L.Avg_pool ~kernel ~stride
                          ~padding:(0, 0) padded))
                then ok := false
              end
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Tser: serialization round-trips bit-for-bit over Bigarray storage    *)

module Tser = Nnsmith_tensor.Tser

let bits t i = Int64.bits_of_float (Nd.get_f t i)

let check_roundtrip msg t =
  let t' = Tser.parse_tensor (Tser.encode_tensor t) in
  check (msg ^ ": dtype") true (Nd.dtype t' = Nd.dtype t);
  check (msg ^ ": shape") true (Nd.shape t' = Nd.shape t);
  (match Dtype.is_float (Nd.dtype t) with
  | true ->
      for i = 0 to Nd.numel t - 1 do
        check
          (Printf.sprintf "%s: bits @%d" msg i)
          true
          (Int64.equal (bits t i) (bits t' i))
      done
  | false ->
      for i = 0 to Nd.numel t - 1 do
        check
          (Printf.sprintf "%s: elt @%d" msg i)
          true
          (Nd.to_int t i = Nd.to_int t' i)
      done);
  (* the canonical encoding is stable: encode . parse . encode = encode *)
  check (msg ^ ": re-encode") true
    (String.equal (Tser.encode_tensor t) (Tser.encode_tensor t'))

let test_tser_roundtrip_all_dtypes () =
  let specials =
    [ Float.nan; Float.infinity; Float.neg_infinity; -0.0; 0.0; 0.1; -1.5e300 ]
  in
  List.iter
    (fun dt ->
      let t =
        Nd.init_f dt [| 7 |] (fun i -> List.nth specials (i mod 7))
      in
      check_roundtrip (Dtype.to_string dt) t)
    [ Dtype.F32; Dtype.F64 ];
  (* -0.0 must keep its sign bit through the hex encoding *)
  let z = Nd.scalar_f Dtype.F64 (-0.0) in
  let z' = Tser.parse_tensor (Tser.encode_tensor z) in
  check "-0.0 sign bit" true
    (Int64.equal (Int64.bits_of_float (-0.0)) (bits z' 0));
  List.iter
    (fun dt ->
      let t =
        Nd.init_i dt [| 2; 3 |] (fun i ->
            [| max_int; min_int; -1; 0; 1; 123456789 |].(i))
      in
      check_roundtrip (Dtype.to_string dt) t)
    [ Dtype.I32; Dtype.I64 ];
  check_roundtrip "bool" (Nd.init_b [| 4 |] (fun i -> i mod 2 = 0));
  check_roundtrip "empty" (Nd.create Dtype.F32 [| 0 |]);
  (* bindings: list order and ids survive *)
  let b =
    [ (3, Nd.scalar_f Dtype.F32 Float.nan); (1, Nd.scalar_i Dtype.I64 7) ]
  in
  let b' = Tser.parse_binding (Tser.encode_binding b) in
  check "binding ids" true (List.map fst b' = [ 3; 1 ]);
  check "binding bytes" true
    (String.equal (Tser.encode_binding b) (Tser.encode_binding b'))

(* Random NCHW operands drawn from values that stress the bit-identity
   argument (NaN, the infinities, -0.0 and exact ties), kernels up to
   larger than the input, strides 1-3, and every padding from -h to kh that
   [conv2d_dims] accepts, with and without a bias: the clipped windows must
   equal the full sweep bit for bit. *)
let qcheck_conv2d_matches_full_sweep =
  QCheck.Test.make ~name:"conv2d = full sweep" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let int lo hi = lo + Random.State.int rng (hi - lo + 1) in
      let dtype = if Random.State.bool rng then Dtype.F32 else Dtype.F64 in
      let n = int 1 2 and c = int 1 3 and f = int 1 3 in
      let h = int 1 5 and w = int 1 5 in
      let pool =
        [| Float.nan; Float.infinity; Float.neg_infinity; -0.; 0.; 1.; 1.;
           -1.; 2.; 0.5 |]
      in
      let value () =
        if Random.State.int rng 3 = 0 then Random.State.float rng 8. -. 4.
        else pool.(Random.State.int rng (Array.length pool))
      in
      let kh = int 1 (h + 3) and kw = int 1 (w + 3) in
      let x = Nd.init_f dtype [| n; c; h; w |] (fun _ -> value ()) in
      let wt = Nd.init_f dtype [| f; c; kh; kw |] (fun _ -> value ()) in
      let bias =
        if Random.State.bool rng then None
        else Some (Nd.init_f dtype [| f |] (fun _ -> value ()))
      in
      let stride = (int 1 3, int 1 3) in
      let ok = ref true in
      for ph = -h to kh do
        for pw = -w to kw do
          let padding = (ph, pw) in
          match L.conv2d_dims ~stride ~padding x wt with
          | exception Invalid_argument _ -> ()
          | _ ->
              if
                not
                  (Nd.equal
                     (L.conv2d ?bias ~stride ~padding x wt)
                     (conv2d_full_sweep ?bias ~stride ~padding x wt))
              then ok := false
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* The index engine against the per-element formulas                  *)

(* Every map family the kernels walk with [Shape.iter_offsets], checked
   against the per-element [unravel]/[ravel] formula it replaced, over
   random shapes of rank 0-5 with dims 1-5.  The tensor-level checks read a
   source whose element [j] holds [j], so an output's values are the
   offsets it read. *)

let offsets_of t =
  Array.init (Nd.numel t) (fun i -> int_of_float (Nd.to_float t i))
let iota shape = Nd.init_f Dtype.F64 shape float_of_int
let identity_map n = Array.init n Fun.id

let random_shape rng ~lo ~hi =
  Array.init (lo + Random.State.int rng (hi - lo + 1)) (fun _ ->
      1 + Random.State.int rng 5)

let oracle_map out f =
  Array.init (Shape.numel out) (fun i -> f (Shape.unravel out i))

let odometer_property name gen =
  QCheck.Test.make ~name:(name ^ " = unravel/ravel") ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed -> gen (Random.State.make [| seed |]))

let qcheck_odometer_broadcast =
  odometer_property "broadcast" (fun rng ->
      let dst = random_shape rng ~lo:0 ~hi:5 in
      (* keep a suffix of [dst], setting some of its axes to 1 *)
      let rs = Random.State.int rng (Array.length dst + 1) in
      let src =
        Array.init rs (fun j ->
            if Random.State.int rng 3 = 0 then 1
            else dst.(j + Array.length dst - rs))
      in
      let rd = Array.length dst in
      let expected =
        oracle_map dst (fun idx ->
            Shape.ravel src
              (Array.init rs (fun j ->
                   if src.(j) = 1 then 0 else idx.(j + rd - rs))))
      in
      let map =
        match Nd.index_map ~src ~dst with
        | None -> identity_map (Shape.numel dst)
        | Some m -> m
      in
      map = expected && offsets_of (Nd.broadcast_to (iota src) dst) = expected)

let qcheck_odometer_transpose =
  odometer_property "transpose" (fun rng ->
      let src = random_shape rng ~lo:0 ~hi:5 in
      let r = Array.length src in
      let perm = Array.init r Fun.id in
      for i = r - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let tmp = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- tmp
      done;
      let out = Array.map (fun p -> src.(p)) perm in
      let expected =
        oracle_map out (fun oidx ->
            let sidx = Array.make r 0 in
            Array.iteri (fun k p -> sidx.(p) <- oidx.(k)) perm;
            Shape.ravel src sidx)
      in
      let out', map = T.transpose_map src perm in
      out' = out && map = expected
      && offsets_of (T.transpose (iota src) perm) = expected)

let qcheck_odometer_slice =
  odometer_property "slice" (fun rng ->
      let src = random_shape rng ~lo:0 ~hi:5 in
      let r = Array.length src in
      let bound d = Random.State.int rng ((2 * d) + 5) - d - 2 in
      let starts = Array.map bound src and stops = Array.map bound src in
      let steps = Array.init r (fun _ -> 1 + Random.State.int rng 3) in
      let clamp d i = max 0 (min d (if i < 0 then i + d else i)) in
      let lo = Array.mapi (fun k d -> clamp d starts.(k)) src
      and hi = Array.mapi (fun k d -> clamp d stops.(k)) src in
      let out =
        Array.init r (fun k ->
            let len = hi.(k) - lo.(k) in
            if len <= 0 then 0 else 1 + ((len - 1) / steps.(k)))
      in
      match T.slice_map src ~starts ~stops ~steps with
      | exception Invalid_argument _ -> Array.exists (fun d -> d = 0) out
      | out', map ->
          let expected =
            oracle_map out (fun oidx ->
                Shape.ravel src
                  (Array.init r (fun k -> lo.(k) + (oidx.(k) * steps.(k)))))
          in
          out' = out && map = expected
          && offsets_of (T.slice (iota src) ~starts ~stops ~steps) = expected)

let qcheck_odometer_pad =
  odometer_property "pad" (fun rng ->
      let src = random_shape rng ~lo:0 ~hi:5 in
      let r = Array.length src in
      let mode, fill =
        match Random.State.int rng 3 with
        | 0 -> (T.Constant (-7.), -7.)
        | 1 -> (T.Reflect, 0.)
        | _ -> (T.Replicate, 0.)
      in
      let amount d = Random.State.int rng (d + 3) - (d - 1) in
      let before = Array.map amount src and after = Array.map amount src in
      let out = Array.init r (fun k -> src.(k) + before.(k) + after.(k)) in
      let reflect d j =
        if d = 1 then 0
        else
          let period = 2 * (d - 1) in
          let j = ((j mod period) + period) mod period in
          if j < d then j else period - j
      in
      match T.pad_map src ~before ~after ~mode with
      | exception Invalid_argument _ ->
          Array.exists (fun d -> d < 1) out
          || mode = T.Reflect
             && Array.exists Fun.id
                  (Array.mapi (fun k d -> before.(k) >= d || after.(k) >= d) src)
      | out', map, fill' ->
          let expected =
            oracle_map out (fun oidx ->
                let inside = ref true in
                let sidx =
                  Array.init r (fun k ->
                      let j = oidx.(k) - before.(k) and d = src.(k) in
                      if j >= 0 && j < d then j
                      else
                        match mode with
                        | T.Constant _ ->
                            inside := false;
                            0
                        | T.Reflect -> reflect d j
                        | T.Replicate -> max 0 (min (d - 1) j))
                in
                if !inside then Shape.ravel src sidx else -1)
          in
          let values =
            Array.map
              (fun j -> if j < 0 then int_of_float fill else j)
              expected
          in
          out' = out && fill' = fill && map = expected
          && offsets_of (T.pad (iota src) ~before ~after ~mode) = values)

let qcheck_odometer_tile_concat =
  odometer_property "tile and concat" (fun rng ->
      let src = random_shape rng ~lo:0 ~hi:5 in
      let r = Array.length src in
      let reps = List.init r (fun _ -> 1 + Random.State.int rng 3) in
      let out = Array.of_list (List.map2 ( * ) (Array.to_list src) reps) in
      let tile_expected =
        oracle_map out (fun oidx ->
            Shape.ravel src (Array.mapi (fun k v -> v mod src.(k)) oidx))
      in
      let out', map = T.tile_map src reps in
      let tile_ok =
        out' = out && map = tile_expected
        && offsets_of (T.tile (iota src) reps) = tile_expected
      in
      (* concat: part [p]'s element [j] holds [p * 10000 + j] *)
      r = 0
      ||
      let axis = Random.State.int rng r in
      let parts =
        Array.init
          (1 + Random.State.int rng 3)
          (fun _ ->
            let s = Array.copy src in
            s.(axis) <- 1 + Random.State.int rng 5;
            s)
      in
      let total = Array.fold_left (fun acc s -> acc + s.(axis)) 0 parts in
      let cat = Array.copy src in
      cat.(axis) <- total;
      let cat_expected =
        oracle_map cat (fun oidx ->
            let rec locate p j =
              let d = parts.(p).(axis) in
              if j < d then (p, j) else locate (p + 1) (j - d)
            in
            let p, j = locate 0 oidx.(axis) in
            let sidx = Array.copy oidx in
            sidx.(axis) <- j;
            (p * 10000) + Shape.ravel parts.(p) sidx)
      in
      let tensors =
        Array.to_list
          (Array.mapi
             (fun p s ->
               Nd.init_f Dtype.F64 s (fun j -> float_of_int ((p * 10000) + j)))
             parts)
      in
      let c = T.concat ~axis tensors in
      tile_ok && Nd.shape c = cat && offsets_of c = cat_expected)

let qcheck_odometer_reduce =
  odometer_property "reduce bases/windows" (fun rng ->
      let shape = random_shape rng ~lo:0 ~hi:5 in
      let r = Array.length shape in
      let all = List.init r Fun.id in
      let axes = List.filter (fun _ -> Random.State.bool rng) all in
      let keepdims = Random.State.bool rng in
      let reduced = if axes = [] then all else axes in
      let kept = List.filter (fun k -> not (List.mem k reduced)) all in
      let sub ks = Array.of_list (List.map (fun k -> shape.(k)) ks) in
      (* a cell's base: its kept coordinates with every reduced one at 0;
         a window offset: its reduced coordinates with every kept one at 0 *)
      let place ks sub_idx =
        let idx = Array.make r 0 in
        List.iteri (fun j k -> idx.(k) <- sub_idx.(j)) ks;
        Shape.ravel shape idx
      in
      let p = R.plan ~axes ~keepdims shape in
      let bases, windows = R.offsets p in
      let out =
        if keepdims then
          Array.mapi (fun k d -> if List.mem k reduced then 1 else d) shape
        else sub kept
      in
      R.out_shape p = out
      && bases = oracle_map (sub kept) (place kept)
      && windows = oracle_map (sub reduced) (place reduced))

let qcheck_odometer_gather =
  odometer_property "gather" (fun rng ->
      let sd = random_shape rng ~lo:1 ~hi:4 in
      let si = random_shape rng ~lo:0 ~hi:2 in
      let r = Array.length sd and ri = Array.length si in
      let axis = Random.State.int rng r in
      let d = sd.(axis) in
      (* indices up to 3 outside [0, d) on either side *)
      let indices =
        Nd.init_i Dtype.I64 si (fun _ -> Random.State.int rng (d + 6) - 3)
      in
      let out =
        Array.concat
          [ Array.sub sd 0 axis; si; Array.sub sd (axis + 1) (r - axis - 1) ]
      in
      let expected =
        oracle_map out (fun oidx ->
            let iidx = Array.sub oidx axis ri in
            let raw = Nd.to_int indices (Shape.ravel si iidx) in
            let j = max 0 (min (d - 1) raw) in
            Shape.ravel sd
              (Array.init r (fun k ->
                   if k < axis then oidx.(k)
                   else if k = axis then j
                   else oidx.(k + ri - 1))))
      in
      let g = T.gather ~axis (iota sd) indices in
      Nd.shape g = out && offsets_of g = expected)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "tensor"
    [
      ( "dtype",
        [
          tc "f32 rounding" `Quick test_dtype_f32_rounding;
          tc "i32 wrap" `Quick test_dtype_i32_wrap;
          tc "strings" `Quick test_dtype_strings;
        ] );
      ( "shape",
        [
          tc "strides/ravel" `Quick test_shape_strides_ravel;
          tc "broadcast" `Quick test_shape_broadcast;
          QCheck_alcotest.to_alcotest qcheck_broadcast_commutes;
        ] );
      ( "nd",
        [
          tc "create/get/set" `Quick test_nd_create_get_set;
          tc "f32 normalisation" `Quick test_nd_f32_normalisation;
          tc "map2 broadcast" `Quick test_nd_map2_broadcast;
          tc "where" `Quick test_nd_where;
          tc "cast" `Quick test_nd_cast;
          tc "NaN/Inf detection" `Quick test_nd_bad_detection;
          tc "approx equal" `Quick test_nd_approx_equal;
          tc "broadcast_to" `Quick test_nd_broadcast_to;
          tc "tser round-trip all dtypes" `Quick test_tser_roundtrip_all_dtypes;
        ] );
      ( "odometer",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_odometer_broadcast;
            qcheck_odometer_transpose;
            qcheck_odometer_slice;
            qcheck_odometer_pad;
            qcheck_odometer_tile_concat;
            qcheck_odometer_reduce;
            qcheck_odometer_gather;
          ] );
      ( "transform",
        [
          tc "reshape" `Quick test_reshape;
          tc "transpose" `Quick test_transpose;
          QCheck_alcotest.to_alcotest qcheck_transpose_involution;
          tc "slice" `Quick test_slice;
          tc "pad constant" `Quick test_pad_constant;
          tc "pad reflect/replicate" `Quick test_pad_reflect_replicate;
          tc "concat" `Quick test_concat;
          tc "squeeze/unsqueeze/flatten" `Quick test_squeeze_unsqueeze_flatten;
        ] );
      ( "reduce",
        [
          tc "sum/mean" `Quick test_reduce_sum_mean;
          tc "extrema/prod" `Quick test_reduce_extrema_prod;
          tc "argmax/argmin" `Quick test_argmax_argmin;
          tc "softmax" `Quick test_softmax;
          QCheck_alcotest.to_alcotest qcheck_softmax_normalised;
        ] );
      ( "linalg",
        [
          tc "matmul 2d" `Quick test_matmul_2d;
          tc "matmul rank1" `Quick test_matmul_rank1;
          tc "matmul batched" `Quick test_matmul_batched;
          tc "conv2d identity" `Quick test_conv2d_identity;
          tc "conv2d sum kernel" `Quick test_conv2d_sum_kernel;
          tc "conv2d stride/channels/bias" `Quick test_conv2d_stride_channels;
          QCheck_alcotest.to_alcotest qcheck_conv2d_matches_full_sweep;
          tc "pool2d" `Quick test_pool2d;
          QCheck_alcotest.to_alcotest qcheck_pool2d_matches_full_sweep;
        ] );
    ]
