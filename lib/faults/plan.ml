(* A fault plan: the pure, declarative description of everything that
   will go wrong in a run.

   The plan holds no randomness and no clock — it is data.  The plane
   combines it with a seed and the simulated clock, so a failing
   campaign replays exactly from (plan, seed). *)

type window = { from_ : Sim.Time.t; until : Sim.Time.t }

let window ~from_ ~until =
  if Sim.Time.(until <= from_) then
    invalid_arg "Faults.Plan.window: empty window";
  { from_; until }

let in_window now w = Sim.Time.(w.from_ <= now) && Sim.Time.(now < w.until)
let within windows now = List.exists (in_window now) windows

(* [] means the whole run: a plan that just says "1% loss" should not
   have to spell out an infinite window. *)
let active windows now =
  match windows with [] -> true | ws -> within ws now

type link_faults = {
  loss : float;
  corrupt : float;
  duplicate : float;
  jitter : float;
  windows : window list;
}

let calm =
  {
    loss = 0.;
    corrupt = 0.;
    duplicate = 0.;
    jitter = 0.;
    windows = [];
  }

let probability label p =
  if p < 0. || p > 1. then
    invalid_arg (Printf.sprintf "Faults.Plan: %s not in [0, 1]" label);
  p

let link_faults ?(loss = 0.) ?(corrupt = 0.) ?(duplicate = 0.) ?(jitter = 0.)
    ?(windows = []) () =
  {
    loss = probability "loss" loss;
    corrupt = probability "corrupt" corrupt;
    duplicate = probability "duplicate" duplicate;
    jitter = probability "jitter" jitter;
    windows;
  }

type partition = { group : int list; windows : window list }
type crash = { node : int; at : Sim.Time.t; restart_at : Sim.Time.t option }

type t = {
  link : link_faults;
  partitions : partition list;
  crashes : crash list;
}

let none = { link = calm; partitions = []; crashes = [] }

let make ?(link = calm) ?(partitions = []) ?(crashes = []) () =
  List.iter
    (fun p ->
      if p.group = [] then invalid_arg "Faults.Plan: empty partition group";
      if p.windows = [] then
        invalid_arg "Faults.Plan: partition without windows")
    partitions;
  List.iter
    (fun c ->
      match c.restart_at with
      | Some r when Sim.Time.(r <= c.at) ->
          invalid_arg "Faults.Plan: restart not after crash"
      | Some _ | None -> ())
    crashes;
  { link; partitions; crashes }
