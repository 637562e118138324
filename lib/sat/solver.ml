(* MiniSat-style CDCL over flat int buffers. Internal literal encoding:
   variable [v] (1-based) yields literals [2v] (positive) and [2v+1]
   (negative); negation is [lxor 1]. Clause slots 0 and 1 hold the
   watched literals. *)

module Rng = Shell_util.Rng
module Obs = Shell_util.Obs

(* Process-wide effort metrics, flushed from the per-solver counters at
   the end of each [solve]. Registered unstable: how much work the
   solver is asked to do depends on the attack's wall-clock budget, so
   the totals are not a pure function of the workload. *)
let m_solve_calls = Obs.counter ~help:"calls to Solver.solve" "solver_solve_calls"
let m_decisions = Obs.counter ~help:"branching decisions" "solver_decisions"

let m_propagations =
  Obs.counter ~help:"literals implied by unit propagation" "solver_propagations"

let m_conflicts = Obs.counter ~help:"conflicts analyzed" "solver_conflicts"
let m_restarts = Obs.counter ~help:"Luby restarts taken" "solver_restarts"

let h_learned_len =
  Obs.histogram ~help:"learned clause length (literals)" "solver_learned_len"

type result = Sat | Unsat | Unknown

type t = {
  mutable nvars : int;
  mutable vals : int array;  (* lit -> -1 unassigned / 0 false / 1 true *)
  mutable level : int array;  (* var -> decision level *)
  mutable reason : int array;  (* var -> clause index or -1 *)
  mutable phase : bool array;  (* var -> saved phase *)
  mutable activity : float array;
  mutable var_inc : float;
  mutable clauses : int array array;  (* [0, nclauses) live *)
  mutable nclauses : int;
  mutable watches : int array array;  (* lit -> clause indices ... *)
  mutable wlen : int array;  (* ... of which the first [wlen.(lit)] live *)
  mutable trail : int array;  (* capacity nvars + 1: a var is on it once *)
  mutable trail_len : int;
  mutable trail_lim : int array;  (* level -> trail length at its start *)
  mutable nlevels : int;
  mutable qhead : int;
  mutable unsat : bool;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  (* binary max-heap over vars ordered by activity *)
  mutable heap : int array;
  mutable heap_len : int;
  mutable heap_pos : int array;  (* var -> index in heap or -1 *)
  (* scratch reused across calls: [seen] is all-false between
     conflicts, [learnt] holds the clause under analysis (and the
     simplified clause in [add_shifted]), [mark] stamps literals already
     in the clause being added *)
  mutable seen : bool array;
  mutable learnt : int array;
  mutable mark : int array;
  mutable stamp : int;
  seed : int;  (* 0 = all-false initial phases; else per-var pseudorandom *)
}

let create ?(seed = 0) () =
  {
    nvars = 0;
    vals = Array.make 2 (-1);
    level = Array.make 1 0;
    reason = Array.make 1 (-1);
    phase = Array.make 1 false;
    activity = Array.make 1 0.0;
    var_inc = 1.0;
    clauses = Array.make 16 [||];
    nclauses = 0;
    watches = Array.make 2 [||];
    wlen = Array.make 2 0;
    trail = Array.make 1 0;
    trail_len = 0;
    trail_lim = Array.make 16 0;
    nlevels = 0;
    qhead = 0;
    unsat = false;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    heap = Array.make 1 0;
    heap_len = 0;
    heap_pos = Array.make 1 (-1);
    seen = Array.make 1 false;
    learnt = Array.make 1 0;
    mark = Array.make 2 0;
    stamp = 0;
    seed;
  }

let num_vars t = t.nvars
let num_conflicts t = t.conflicts

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
}

let stats (t : t) =
  {
    decisions = t.decisions;
    propagations = t.propagations;
    conflicts = t.conflicts;
    restarts = t.restarts;
  }

let grow_array arr n default =
  let old = Array.length arr in
  if n <= old then arr
  else begin
    let a = Array.make (max n (2 * old)) default in
    Array.blit arr 0 a 0 old;
    a
  end

(* ---------------- activity heap ---------------- *)

(* Sifts move a hole instead of swapping: each step compares the moving
   var against the same neighbours a swap-based sift would, so the
   layout, and with it every tie, is the same. *)

let heap_up t i v =
  let heap = t.heap and act = t.activity.(v) in
  let i = ref i in
  while !i > 0 && act > t.activity.(heap.((!i - 1) / 2)) do
    let p = (!i - 1) / 2 in
    let u = heap.(p) in
    heap.(!i) <- u;
    t.heap_pos.(u) <- !i;
    i := p
  done;
  heap.(!i) <- v;
  t.heap_pos.(v) <- !i

let heap_down t i v =
  let heap = t.heap and n = t.heap_len and act = t.activity in
  let i = ref i and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let best = ref v in
    let best_i = ref !i in
    if l < n && act.(heap.(l)) > act.(!best) then begin
      best := heap.(l);
      best_i := l
    end;
    if r < n && act.(heap.(r)) > act.(!best) then begin
      best := heap.(r);
      best_i := r
    end;
    if !best_i = !i then continue := false
    else begin
      heap.(!i) <- !best;
      t.heap_pos.(!best) <- !i;
      i := !best_i
    end
  done;
  heap.(!i) <- v;
  t.heap_pos.(v) <- !i

let heap_insert t v =
  if t.heap_pos.(v) = -1 then begin
    let i = t.heap_len in
    t.heap_len <- i + 1;
    heap_up t i v
  end

(* The top var, or 0 when the heap is empty. *)
let heap_pop t =
  let n = t.heap_len in
  if n = 0 then 0
  else begin
    let top = t.heap.(0) in
    let last = t.heap.(n - 1) in
    t.heap_len <- n - 1;
    t.heap_pos.(top) <- -1;
    if n > 1 then heap_down t 0 last;
    top
  end

(* ---------------- variables ---------------- *)

let new_var t =
  let v = t.nvars + 1 in
  t.nvars <- v;
  let nlits = 2 * (v + 1) in
  t.vals <- grow_array t.vals nlits (-1);
  t.watches <- grow_array t.watches nlits [||];
  t.wlen <- grow_array t.wlen nlits 0;
  t.mark <- grow_array t.mark nlits 0;
  t.level <- grow_array t.level (v + 1) 0;
  t.reason <- grow_array t.reason (v + 1) (-1);
  t.phase <- grow_array t.phase (v + 1) false;
  t.activity <- grow_array t.activity (v + 1) 0.0;
  t.heap <- grow_array t.heap (v + 1) 0;
  t.heap_pos <- grow_array t.heap_pos (v + 1) (-1);
  t.seen <- grow_array t.seen (v + 1) false;
  t.learnt <- grow_array t.learnt (v + 1) 0;
  t.trail <- grow_array t.trail (v + 1) 0;
  if t.seed <> 0 then
    t.phase.(v) <- Rng.bool (Rng.create (t.seed lxor (v * 0x9E3779B9)));
  heap_insert t v;
  v

let ensure_vars t n =
  while t.nvars < n do
    ignore (new_var t)
  done

(* ---------------- assignment ---------------- *)

let enqueue t l reason =
  let v = l lsr 1 in
  t.vals.(l) <- 1;
  t.vals.(l lxor 1) <- 0;
  t.level.(v) <- t.nlevels;
  t.reason.(v) <- reason;
  t.phase.(v) <- l land 1 = 0;
  t.trail.(t.trail_len) <- l;
  t.trail_len <- t.trail_len + 1

let new_level t =
  if t.nlevels = Array.length t.trail_lim then
    t.trail_lim <- grow_array t.trail_lim (t.nlevels + 1) 0;
  t.trail_lim.(t.nlevels) <- t.trail_len;
  t.nlevels <- t.nlevels + 1

(* Undo the trail newest-first, so vars re-enter the heap in the same
   order as ever. *)
let cancel_until t lvl =
  if t.nlevels > lvl then begin
    let bound = t.trail_lim.(lvl) in
    for k = t.trail_len - 1 downto bound do
      let l = t.trail.(k) in
      let v = l lsr 1 in
      t.vals.(l) <- -1;
      t.vals.(l lxor 1) <- -1;
      t.reason.(v) <- -1;
      heap_insert t v
    done;
    t.trail_len <- bound;
    t.nlevels <- lvl;
    t.qhead <- bound
  end

(* ---------------- clauses ---------------- *)

let watch t lit ci =
  let n = t.wlen.(lit) in
  let ws = t.watches.(lit) in
  let ws =
    if n < Array.length ws then ws
    else begin
      let w = Array.make (max 4 (2 * n)) 0 in
      Array.blit ws 0 w 0 n;
      t.watches.(lit) <- w;
      w
    end
  in
  ws.(n) <- ci;
  t.wlen.(lit) <- n + 1

(* Watch entries live under [lit lxor 1]: the list at [p] holds the
   clauses to visit when [p] becomes true, i.e. when the watched
   [p lxor 1] becomes false. *)
let attach t c =
  let ci = t.nclauses in
  if ci = Array.length t.clauses then t.clauses <- grow_array t.clauses (ci + 1) [||];
  t.clauses.(ci) <- c;
  t.nclauses <- ci + 1;
  watch t (c.(0) lxor 1) ci;
  watch t (c.(1) lxor 1) ci;
  ci

(* Propagate all enqueued facts; returns conflicting clause id or -1.

   Each watch list is compacted in place with read/write cursors:
   entries that keep their watch slide down past entries that moved to
   another list. A new watch never lands in the list being walked (the
   replacement literal is non-false, [p lxor 1] is false), so the walk
   may hold the list's array across pushes. *)
let propagate t =
  let vals = t.vals and clauses = t.clauses in
  let confl = ref (-1) in
  while !confl = -1 && t.qhead < t.trail_len do
    let p = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    let false_lit = p lxor 1 in
    let ws = t.watches.(p) in
    let n = t.wlen.(p) in
    let i = ref 0 and w = ref 0 in
    while !i < n do
      let ci = ws.(!i) in
      incr i;
      let c = clauses.(ci) in
      (* the false literal goes to slot 1 *)
      if c.(0) = false_lit then begin
        c.(0) <- c.(1);
        c.(1) <- false_lit
      end;
      if vals.(c.(0)) = 1 then begin
        (* satisfied; keep watching the same literal *)
        ws.(!w) <- ci;
        incr w
      end
      else begin
        (* look for a new watch *)
        let len = Array.length c in
        let j = ref 2 in
        while !j < len && vals.(c.(!j)) = 0 do
          incr j
        done;
        if !j < len then begin
          let l = c.(!j) in
          c.(1) <- l;
          c.(!j) <- false_lit;
          watch t (l lxor 1) ci
        end
        else begin
          ws.(!w) <- ci;
          incr w;
          if vals.(c.(0)) = 0 then begin
            (* conflict: keep the unexamined rest of the watch list *)
            confl := ci;
            t.qhead <- t.trail_len;
            Array.blit ws !i ws !w (n - !i);
            w := !w + (n - !i);
            i := n
          end
          else begin
            t.propagations <- t.propagations + 1;
            enqueue t c.(0) ci
          end
        end
      end
    done;
    t.wlen.(p) <- !w
  done;
  !confl

let var_bump t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then begin
    for u = 1 to t.nvars do
      t.activity.(u) <- t.activity.(u) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  let i = t.heap_pos.(v) in
  if i >= 0 then heap_up t i v

let var_decay t = t.var_inc <- t.var_inc /. 0.95

(* First-UIP conflict analysis into [t.learnt]. Returns the clause
   length; [t.learnt.(0)] is the asserting literal and [t.learnt.(1)]
   one of the highest level among the rest. *)
let analyze t confl =
  let seen = t.seen and learnt = t.learnt in
  let len = ref 1 in  (* slot 0 is for the asserting literal *)
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let trail_idx = ref (t.trail_len - 1) in
  let continue = ref true in
  while !continue do
    let c = t.clauses.(!confl) in
    for j = (if !p = -1 then 0 else 1) to Array.length c - 1 do
      let q = c.(j) in
      let v = q lsr 1 in
      if (not seen.(v)) && t.level.(v) > 0 then begin
        seen.(v) <- true;
        var_bump t v;
        if t.level.(v) >= t.nlevels then incr counter
        else begin
          learnt.(!len) <- q;
          incr len
        end
      end
    done;
    (* next literal to expand: the newest seen one on the trail *)
    while not seen.(t.trail.(!trail_idx) lsr 1) do
      decr trail_idx
    done;
    let l = t.trail.(!trail_idx) in
    decr trail_idx;
    p := l;
    seen.(l lsr 1) <- false;
    decr counter;
    if !counter = 0 then continue := false else confl := t.reason.(l lsr 1)
  done;
  (* every current-level var was unmarked as it was expanded, so the
     marks left are exactly the lower-level literals collected *)
  let len = !len in
  for k = 1 to len - 1 do
    seen.(learnt.(k) lsr 1) <- false
  done;
  learnt.(0) <- !p lxor 1;
  (* backjump level = max level among learnt.(1..); its first holder
     moves to slot 1 *)
  let blevel = ref 0 and swap_pos = ref 1 in
  for k = 1 to len - 1 do
    let lv = t.level.(learnt.(k) lsr 1) in
    if lv > !blevel then begin
      blevel := lv;
      swap_pos := k
    end
  done;
  if len > 1 then begin
    let tmp = learnt.(1) in
    learnt.(1) <- learnt.(!swap_pos);
    learnt.(!swap_pos) <- tmp
  end;
  len

let record_learnt t len =
  if len = 1 then begin
    cancel_until t 0;
    enqueue t t.learnt.(0) (-1)
  end
  else begin
    let ci = attach t (Array.sub t.learnt 0 len) in
    enqueue t t.learnt.(0) ci
  end;
  Obs.observe h_learned_len len

(* DIMACS literal -> internal literal *)
let ilit l = if l > 0 then 2 * l else (2 * -l) + 1

(* Simplify [lits] (each DIMACS literal shifted by [shift] variables)
   against level-0 assignments, drop duplicates and store it. The
   stored clause lists literals in reverse order of first occurrence. *)
let add_shifted t ~shift lits =
  if shift < 0 then invalid_arg "Solver.add_shifted: negative shift";
  cancel_until t 0;
  if not t.unsat then begin
    t.stamp <- t.stamp + 1;
    let stamp = t.stamp and mark = t.mark and buf = t.learnt in
    let n = ref 0 and satisfied = ref false in
    for k = 0 to Array.length lits - 1 do
      let l = lits.(k) in
      if l = 0 then invalid_arg "Solver.add_clause: bad literal";
      let l = if l > 0 then l + shift else l - shift in
      if abs l > t.nvars then invalid_arg "Solver.add_clause: bad literal";
      (* once satisfied, the rest is only checked: [buf] holds at most
         one literal per var *)
      if not !satisfied then begin
        let il = ilit l in
        match t.vals.(il) with
        | 1 -> satisfied := true
        | 0 -> ()
        | _ ->
            if mark.(il lxor 1) = stamp then satisfied := true
            else if mark.(il) <> stamp then begin
              mark.(il) <- stamp;
              buf.(!n) <- il;
              incr n
            end
      end
    done;
    if not !satisfied then
      match !n with
      | 0 -> t.unsat <- true
      | 1 ->
          enqueue t buf.(0) (-1);
          if propagate t <> -1 then t.unsat <- true
      | n -> ignore (attach t (Array.init n (fun k -> buf.(n - 1 - k))))
  end

let add_clause t lits = add_shifted t ~shift:0 (Array.of_list lits)

(* ---------------- search ---------------- *)

(* Next unassigned var by activity, or 0 when every var is assigned. *)
let rec pick_branch t =
  let v = heap_pop t in
  if v = 0 || t.vals.(2 * v) = -1 then v else pick_branch t

(* Luby sequence 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... (MiniSat's port). *)
let luby x =
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  1 lsl !seq

let solve_search ?(assumptions = []) ?max_conflicts t =
  cancel_until t 0;
  if t.unsat then Unsat
  else if propagate t <> -1 then begin
    t.unsat <- true;
    Unsat
  end
  else begin
    let assumptions = Array.of_list (List.map ilit assumptions) in
    let nassumptions = Array.length assumptions in
    let budget = match max_conflicts with Some b -> t.conflicts + b | None -> max_int in
    let restart_n = ref 0 in
    let conflicts_until_restart = ref (100 * luby !restart_n) in
    let result = ref None in
    while !result = None do
      let confl = propagate t in
      if confl <> -1 then begin
        t.conflicts <- t.conflicts + 1;
        decr conflicts_until_restart;
        if t.nlevels <= nassumptions then begin
          (* conflict inside assumption levels: unsat under assumptions;
             at level 0 the clauses alone are unsat, for good *)
          if t.nlevels = 0 then t.unsat <- true;
          result := Some Unsat
        end
        else begin
          let len = analyze t confl in
          (* [analyze] leaves the backjump level's literal in slot 1 *)
          cancel_until t (if len > 1 then t.level.(t.learnt.(1) lsr 1) else 0);
          record_learnt t len;
          var_decay t
        end;
        if t.conflicts >= budget && !result = None then result := Some Unknown
        else if !conflicts_until_restart <= 0 && !result = None then begin
          incr restart_n;
          t.restarts <- t.restarts + 1;
          conflicts_until_restart := 100 * luby !restart_n;
          cancel_until t nassumptions
        end
      end
      else begin
        (* decide *)
        let dl = t.nlevels in
        if dl < nassumptions then begin
          let l = assumptions.(dl) in
          match t.vals.(l) with
          | 1 ->
              (* already satisfied: open an empty decision level *)
              new_level t
          | 0 -> result := Some Unsat
          | _ ->
              new_level t;
              enqueue t l (-1)
        end
        else
          match pick_branch t with
          | 0 -> result := Some Sat
          | v ->
              t.decisions <- t.decisions + 1;
              new_level t;
              enqueue t (if t.phase.(v) then 2 * v else (2 * v) + 1) (-1)
      end
    done;
    match !result with
    | Some Sat -> Sat  (* keep trail so [value] can read the model *)
    | Some r ->
        cancel_until t 0;
        r
    | None -> assert false
  end

let solve ?assumptions ?max_conflicts t =
  if not (Obs.enabled ()) then solve_search ?assumptions ?max_conflicts t
  else begin
    Obs.incr m_solve_calls;
    let d0 = t.decisions
    and p0 = t.propagations
    and c0 = t.conflicts
    and r0 = t.restarts in
    Fun.protect
      ~finally:(fun () ->
        Obs.add m_decisions (t.decisions - d0);
        Obs.add m_propagations (t.propagations - p0);
        Obs.add m_conflicts (t.conflicts - c0);
        Obs.add m_restarts (t.restarts - r0))
      (fun () -> solve_search ?assumptions ?max_conflicts t)
  end

let value t v =
  if v < 1 || v > t.nvars then invalid_arg "Solver.value";
  t.vals.(2 * v) = 1

let model t = Array.init (t.nvars + 1) (fun v -> v > 0 && t.vals.(2 * v) = 1)
