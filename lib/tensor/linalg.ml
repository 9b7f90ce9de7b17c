let require_float name (t : Nd.t) =
  if not (Dtype.is_float t.Nd.dtype) then
    invalid_arg (Printf.sprintf "Linalg.%s: not a float tensor" name)

(* Shared core: both operands rank >= 2, [dst] already has the broadcast
   result shape.  The allocating [matmul] below and the plan's kernel both
   delegate here, so every entry point computes identical bits.  Only batch
   dims broadcast, so one map per operand, over the batch, gives each
   output matrix the offset of its operand matrices; each sum starts from
   +0.0 and adds the products in ascending contraction order. *)
let matmul_into ~dst a b =
  require_float "matmul" a;
  require_float "matmul" b;
  let sa = a.Nd.shape and sb = b.Nd.shape in
  let ra2 = Array.length sa and rb2 = Array.length sb in
  if ra2 < 2 || rb2 < 2 then invalid_arg "Linalg.matmul_into: rank < 2";
  let m = sa.(ra2 - 2) and k = sa.(ra2 - 1) in
  let k' = sb.(rb2 - 2) and n = sb.(rb2 - 1) in
  if k <> k' then
    invalid_arg
      (Fmt.str "Linalg.matmul: contraction mismatch %a vs %a" Shape.pp sa
         Shape.pp sb);
  let batch_a = Array.sub sa 0 (ra2 - 2) and batch_b = Array.sub sb 0 (rb2 - 2) in
  let batch =
    match Shape.broadcast batch_a batch_b with
    | Some s -> s
    | None -> invalid_arg "Linalg.matmul: batch dims do not broadcast"
  in
  let dtype = a.Nd.dtype in
  if not (Dtype.equal dtype (Nd.dtype dst)) then
    invalid_arg "Linalg.matmul_into: destination dtype mismatch";
  if not (Shape.equal (Array.append batch [| m; n |]) (Nd.shape dst)) then
    invalid_arg "Linalg.matmul_into: destination shape mismatch";
  let ma = Nd.index_map ~src:batch_a ~dst:batch
  and mb = Nd.index_map ~src:batch_b ~dst:batch in
  let x = Nd.float_data a and y = Nd.float_data b and o = Nd.float_data dst in
  let get : Nd.farray -> int -> float = Bigarray.Array1.unsafe_get in
  if
    Bigarray.Array1.dim x <> Shape.numel sa
    || Bigarray.Array1.dim y <> Shape.numel sb
    || Bigarray.Array1.dim o <> Shape.numel (Nd.shape dst)
  then invalid_arg "Linalg.matmul_into: payload and shape disagree";
  for bi = 0 to Shape.numel batch - 1 do
    let abase = Nd.at ma bi * m * k and bbase = Nd.at mb bi * k * n in
    for i = 0 to m - 1 do
      let arow = abase + (i * k) in
      for j = 0 to n - 1 do
        let acc = ref 0. in
        for l = 0 to k - 1 do
          acc := !acc +. (get x (arow + l) *. get y (bbase + (l * n) + j))
        done;
        Bigarray.Array1.unsafe_set o
          ((((bi * m) + i) * n) + j)
          (Dtype.normalize_float dtype !acc)
      done
    done
  done

let matmul a b =
  require_float "matmul" a;
  require_float "matmul" b;
  let ra = Nd.rank a and rb = Nd.rank b in
  if ra < 1 || rb < 1 then invalid_arg "Linalg.matmul: rank < 1";
  (* promote rank-1 operands, remembering which unit dims to squeeze *)
  let a2 = if ra = 1 then Transform.unsqueeze a 0 else a in
  let b2 = if rb = 1 then Transform.unsqueeze b 1 else b in
  let sa = a2.Nd.shape and sb = b2.Nd.shape in
  let ra2 = Array.length sa and rb2 = Array.length sb in
  let m = sa.(ra2 - 2) and k = sa.(ra2 - 1) in
  let k' = sb.(rb2 - 2) and n = sb.(rb2 - 1) in
  if k <> k' then
    invalid_arg
      (Fmt.str "Linalg.matmul: contraction mismatch %a vs %a" Shape.pp
         a.Nd.shape Shape.pp b.Nd.shape);
  let batch_a = Array.sub sa 0 (ra2 - 2) and batch_b = Array.sub sb 0 (rb2 - 2) in
  let batch =
    match Shape.broadcast batch_a batch_b with
    | Some s -> s
    | None -> invalid_arg "Linalg.matmul: batch dims do not broadcast"
  in
  let out_shape = Array.append batch [| m; n |] in
  let out = Nd.create a.Nd.dtype out_shape in
  matmul_into ~dst:out a2 b2;
  let out =
    if ra = 1 then Transform.squeeze out [ Array.length out_shape - 2 ]
    else out
  in
  if rb = 1 then Transform.squeeze out [ Nd.rank out - 1 ] else out

let conv2d_dims ~stride ~padding (input : Nd.t) (weight : Nd.t) =
  require_float "conv2d" input;
  require_float "conv2d" weight;
  if Nd.rank input <> 4 || Nd.rank weight <> 4 then
    invalid_arg "Linalg.conv2d: input and weight must be rank 4";
  let si = input.Nd.shape and sw = weight.Nd.shape in
  let n = si.(0) and c = si.(1) and h = si.(2) and w = si.(3) in
  let f = sw.(0) and cw = sw.(1) and kh = sw.(2) and kw = sw.(3) in
  if c <> cw then invalid_arg "Linalg.conv2d: channel mismatch";
  let sh, sw_ = stride and ph, pw = padding in
  let oh = ((h + (2 * ph) - kh) / sh) + 1
  and ow = ((w + (2 * pw) - kw) / sw_) + 1 in
  if oh < 1 || ow < 1 then invalid_arg "Linalg.conv2d: empty output";
  (n, c, h, w, f, kh, kw, oh, ow)

(* Visits only the in-bounds taps of each window, channel then row then
   column: the order in which a full ci -> ki -> kj sweep with a bounds test
   visits them, so every sum equals the sweep's.  Each accumulator starts
   from the bias (or +0.0) and is rounded to the output dtype once.  The
   payload lengths are checked against the shapes up front, which makes the
   unchecked reads in the loop safe. *)
let conv2d_into ?bias ~stride ~padding ~dst input weight =
  let n, c, h, w, f, kh, kw, oh, ow =
    conv2d_dims ~stride ~padding input weight
  in
  if
    (not (Dtype.equal input.Nd.dtype (Nd.dtype dst)))
    || not (Shape.equal [| n; f; oh; ow |] (Nd.shape dst))
  then invalid_arg "Linalg.conv2d_into: destination mismatch";
  let x = Nd.float_data input
  and wt = Nd.float_data weight
  and o = Nd.float_data dst in
  if
    Bigarray.Array1.dim x <> n * c * h * w
    || Bigarray.Array1.dim wt <> f * c * kh * kw
    || Bigarray.Array1.dim o <> n * f * oh * ow
  then invalid_arg "Linalg.conv2d_into: payload and shape disagree";
  let get : Nd.farray -> int -> float = Bigarray.Array1.unsafe_get in
  let sh, sw_ = stride and ph, pw = padding in
  let dtype = input.Nd.dtype in
  let bias_of fi = match bias with None -> 0. | Some b -> Nd.to_float b fi in
  for ni = 0 to n - 1 do
    for fi = 0 to f - 1 do
      let b0 = bias_of fi in
      for ohi = 0 to oh - 1 do
        let h0 = (ohi * sh) - ph in
        let ki0 = max 0 (-h0) and ki1 = min kh (h - h0) in
        for owi = 0 to ow - 1 do
          let w0 = (owi * sw_) - pw in
          let kj0 = max 0 (-w0) and kj1 = min kw (w - w0) in
          let acc = ref b0 in
          for ci = 0 to c - 1 do
            let xplane = ((ni * c) + ci) * h and wplane = ((fi * c) + ci) * kh in
            for ki = ki0 to ki1 - 1 do
              let xrow = ((xplane + h0 + ki) * w) + w0
              and wrow = (wplane + ki) * kw in
              for kj = kj0 to kj1 - 1 do
                acc := !acc +. (get x (xrow + kj) *. get wt (wrow + kj))
              done
            done
          done;
          Bigarray.Array1.unsafe_set o
            ((((((ni * f) + fi) * oh) + ohi) * ow) + owi)
            (Dtype.normalize_float dtype !acc)
        done
      done
    done
  done

let conv2d ?bias ~stride ~padding input weight =
  let n, _, _, _, f, _, _, oh, ow = conv2d_dims ~stride ~padding input weight in
  let out = Nd.create input.Nd.dtype [| n; f; oh; ow |] in
  conv2d_into ?bias ~stride ~padding ~dst:out input weight;
  out

type pool_kind = Max_pool | Avg_pool

let pool2d_dims ~kernel ~stride ~padding (input : Nd.t) =
  require_float "pool2d" input;
  if Nd.rank input <> 4 then invalid_arg "Linalg.pool2d: input must be rank 4";
  let si = input.Nd.shape in
  let n = si.(0) and c = si.(1) and h = si.(2) and w = si.(3) in
  let kh, kw = kernel and sh, sw_ = stride and ph, pw = padding in
  if kh < 1 || kw < 1 then invalid_arg "Linalg.pool2d: kernel < 1";
  let oh = ((h + (2 * ph) - kh) / sh) + 1
  and ow = ((w + (2 * pw) - kw) / sw_) + 1 in
  if oh < 1 || ow < 1 then invalid_arg "Linalg.pool2d: empty output";
  (n, c, h, w, oh, ow)

(* Visits only the in-bounds part of each window, rows then columns: the
   order in which a full kh x kw sweep with a bounds test visits them, so
   every max, sum and count equals the sweep's.  An average counts the
   window's cells inside the input, or with [include_pad] those inside the
   zero-padded input's extent [-p, d + p) of each axis. *)
let pool_into ~kind ~include_pad ~kernel ~stride ~padding ~dst input =
  let n, c, h, w, oh, ow = pool2d_dims ~kernel ~stride ~padding input in
  if
    (not (Dtype.equal input.Nd.dtype (Nd.dtype dst)))
    || not (Shape.equal [| n; c; oh; ow |] (Nd.shape dst))
  then invalid_arg "Linalg.pool2d_into: destination mismatch";
  let kh, kw = kernel and sh, sw_ = stride and ph, pw = padding in
  let ch0, ch1, cw0, cw1 =
    if include_pad then (-ph, h + ph, -pw, w + pw) else (0, h, 0, w)
  in
  let dtype = input.Nd.dtype in
  let x = Nd.float_data input and o = Nd.float_data dst in
  for li = 0 to (n * c * oh * ow) - 1 do
    let ow_i = li mod ow in
    let oh_i = li / ow mod oh in
    let plane = li / (ow * oh) in
    let h0 = (oh_i * sh) - ph and w0 = (ow_i * sw_) - pw in
    (* counted cells [hc0, hc1) x [wc0, wc1); summed cells also in the input *)
    let hc0 = max ch0 h0 and hc1 = min ch1 (h0 + kh) in
    let wc0 = max cw0 w0 and wc1 = min cw1 (w0 + kw) in
    let hlo = max 0 hc0 and hhi = min h hc1 in
    let wlo = max 0 wc0 and whi = min w wc1 in
    let v =
      match kind with
      | Max_pool ->
          let acc = ref Float.neg_infinity in
          for hi = hlo to hhi - 1 do
            let row = ((plane * h) + hi) * w in
            for wi = wlo to whi - 1 do
              let e = x.{row + wi} in
              acc :=
                if Float.is_nan e || Float.is_nan !acc then Float.nan
                else Float.max !acc e
            done
          done;
          !acc
      | Avg_pool ->
          let acc = ref 0. in
          for hi = hlo to hhi - 1 do
            let row = ((plane * h) + hi) * w in
            for wi = wlo to whi - 1 do
              acc := !acc +. x.{row + wi}
            done
          done;
          let count = max 0 (hc1 - hc0) * max 0 (wc1 - wc0) in
          if count = 0 then 0. else !acc /. float_of_int count
    in
    o.{li} <- Dtype.normalize_float dtype v
  done

let pool ~kind ~include_pad ~kernel ~stride ~padding input =
  let n, c, _, _, oh, ow = pool2d_dims ~kernel ~stride ~padding input in
  let out = Nd.create input.Nd.dtype [| n; c; oh; ow |] in
  pool_into ~kind ~include_pad ~kernel ~stride ~padding ~dst:out input;
  out

let pool2d_into ~kind ~kernel ~stride ~padding ~dst input =
  pool_into ~kind ~include_pad:false ~kernel ~stride ~padding ~dst input

let pool2d ~kind ~kernel ~stride ~padding input =
  pool ~kind ~include_pad:false ~kernel ~stride ~padding input

(* Skipping the zero pads is exact: the sum starts at +0.0, and a
   round-to-nearest sum is -0.0 only when both addends are, so adding
   +0.0 is the identity on every value the sum takes, NaN and the
   infinities included. *)
let avg_pool2d_include_pad ~kernel ~stride ~padding input =
  pool ~kind:Avg_pool ~include_pad:true ~kernel ~stride ~padding input
