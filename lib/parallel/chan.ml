(* A multi-producer single-consumer channel (mutex + condition variable):
   the funnel through which worker domains hand their per-test messages to
   the one domain allowed to write the bug-report corpus.  Unbounded — one
   message per test, so senders never block. *)

type 'a t = {
  q : 'a Queue.t;
  m : Mutex.t;
  nonempty : Condition.t;
  mutable producers : int;  (* open producer handles; 0 = stream finished *)
}

let create ~producers () =
  if producers < 0 then invalid_arg "Chan.create: negative producer count";
  {
    q = Queue.create ();
    m = Mutex.create ();
    nonempty = Condition.create ();
    producers;
  }

let send t x =
  Mutex.lock t.m;
  Queue.push x t.q;
  Condition.signal t.nonempty;
  Mutex.unlock t.m

let producer_done t =
  Mutex.lock t.m;
  if t.producers <= 0 then begin
    Mutex.unlock t.m;
    invalid_arg "Chan.producer_done: no open producers"
  end;
  t.producers <- t.producers - 1;
  if t.producers = 0 then Condition.broadcast t.nonempty;
  Mutex.unlock t.m

let recv t =
  Mutex.lock t.m;
  let rec wait () =
    if not (Queue.is_empty t.q) then Some (Queue.pop t.q)
    else if t.producers = 0 then None
    else begin
      Condition.wait t.nonempty t.m;
      wait ()
    end
  in
  let r = wait () in
  Mutex.unlock t.m;
  r
