//! A hand-rolled CDCL SAT solver.
//!
//! This is a classic conflict-driven clause-learning solver in the MiniSat
//! lineage, written from scratch for the offline workspace (no external
//! solver crates):
//!
//! - **two-watched-literal propagation** — each clause is watched by two of
//!   its literals; only when a watched literal is falsified does the clause
//!   need attention, so propagation cost tracks the number of clauses that
//!   actually become unit, not the clause count;
//! - **first-UIP conflict analysis** — on conflict, resolve backwards along
//!   the implication graph until exactly one literal of the current decision
//!   level remains (the first unique implication point), learn the asserting
//!   clause and backjump to its second-highest decision level;
//! - **VSIDS-style activity** — variables involved in recent conflicts are
//!   preferred as decisions; ties break to the lower variable index so runs
//!   are bit-for-bit deterministic;
//! - **phase saving** — a variable is re-decided with the polarity it last
//!   held, which keeps the solver in the neighbourhood of partial solutions
//!   across restarts;
//! - **Luby restarts** — the search is abandoned (learnt clauses kept) on
//!   the universal Luby schedule, defusing heavy-tailed runtimes.
//!
//! The solver is incremental: clauses may be added between `solve` calls and
//! queries run under *assumptions* (temporary decisions tried first), which
//! is what the SAT sweeping in [`crate::check`] leans on — candidate
//! equivalences are queried under a fresh selector literal and the selector
//! is permanently falsified once the query is decided.

/// A propositional variable, numbered from 0.
pub type Var = u32;

/// A literal: a variable with a sign, packed as `var << 1 | negated`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v << 1)
    }

    /// The negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit(v << 1 | 1)
    }

    /// A literal of `v`, negated iff `negated`.
    pub fn new(v: Var, negated: bool) -> Lit {
        Lit(v << 1 | u32::from(negated))
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        self.0 >> 1
    }

    /// Whether the literal is negated.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// Dense index (`2*var + sign`), used for watch lists.
    fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl std::fmt::Debug for Lit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{}", if self.is_neg() { "-" } else { "" }, self.var())
    }
}

/// Outcome of a [`Solver::solve_limited`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found (see [`Solver::model_value`]).
    Sat,
    /// Unsatisfiable under the given assumptions.
    Unsat,
    /// Undecided: the conflict budget ran out or the caller interrupted.
    Unknown,
}

/// Search statistics, cumulative across `solve` calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverStats {
    /// Decisions taken.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Conflicts analyzed.
    pub conflicts: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Clauses learnt (including later-deleted ones).
    pub learnt: u64,
}

/// Reference to a clause in the arena.
type CRef = u32;

struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    activity: f64,
    deleted: bool,
}

/// Max-heap of variables ordered by activity (ties to the lower index).
#[derive(Default)]
struct VarOrder {
    heap: Vec<Var>,
    /// Position of each var in `heap`, or -1 when absent.
    pos: Vec<i32>,
    activity: Vec<f64>,
}

impl VarOrder {
    fn new_var(&mut self) {
        let v = self.pos.len() as Var;
        self.pos.push(-1);
        self.activity.push(0.0);
        self.insert(v);
    }

    fn before(&self, a: Var, b: Var) -> bool {
        let (aa, ab) = (self.activity[a as usize], self.activity[b as usize]);
        aa > ab || (aa == ab && a < b)
    }

    fn insert(&mut self, v: Var) {
        if self.pos[v as usize] >= 0 {
            return;
        }
        self.pos[v as usize] = self.heap.len() as i32;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1);
    }

    fn pop(&mut self) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().unwrap();
        self.pos[top as usize] = -1;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0);
        }
        Some(top)
    }

    fn bumped(&mut self, v: Var) {
        let p = self.pos[v as usize];
        if p >= 0 {
            self.sift_up(p as usize);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.before(self.heap[i], self.heap[parent]) {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.heap.len() && self.before(self.heap[l], self.heap[best]) {
                best = l;
            }
            if r < self.heap.len() && self.before(self.heap[r], self.heap[best]) {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i] as usize] = i as i32;
        self.pos[self.heap[j] as usize] = j as i32;
    }
}

/// The CDCL solver.  See the module docs for the algorithm inventory.
pub struct Solver {
    clauses: Vec<Clause>,
    watches: Vec<Vec<CRef>>,
    /// Per-var assignment: 0 unassigned, 1 true, -1 false.
    assign: Vec<i8>,
    level: Vec<u32>,
    reason: Vec<Option<CRef>>,
    phase: Vec<bool>,
    seen: Vec<bool>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    order: VarOrder,
    var_inc: f64,
    cla_inc: f64,
    /// Established unsatisfiable regardless of assumptions.
    unsat: bool,
    model: Vec<i8>,
    live_learnt: usize,
    learnt_cap: usize,
    /// Search statistics, cumulative across `solve` calls.
    pub stats: SolverStats,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// An empty solver with no variables or clauses.
    pub fn new() -> Self {
        Solver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            phase: Vec::new(),
            seen: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            order: VarOrder::default(),
            var_inc: 1.0,
            cla_inc: 1.0,
            unsat: false,
            model: Vec::new(),
            live_learnt: 0,
            learnt_cap: 20_000,
            stats: SolverStats::default(),
        }
    }

    /// Allocates a fresh variable and returns it.
    pub fn new_var(&mut self) -> Var {
        let v = self.assign.len() as Var;
        self.assign.push(0);
        self.level.push(0);
        self.reason.push(None);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.new_var();
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    fn lit_value(&self, l: Lit) -> Option<bool> {
        match self.assign[l.var() as usize] {
            0 => None,
            a => Some((a > 0) != l.is_neg()),
        }
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    /// Adds a clause.  Returns `false` if the formula became trivially
    /// unsatisfiable (empty clause, or a level-0 propagation conflict).
    ///
    /// Must be called with no decisions on the trail (between `solve` calls).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert_eq!(self.decision_level(), 0, "add_clause requires decision level 0");
        if self.unsat {
            return false;
        }
        // Normalize: sort, drop duplicates and level-0-false literals, and
        // detect tautologies / already-satisfied clauses.
        let mut c: Vec<Lit> = lits.to_vec();
        c.sort();
        c.dedup();
        let mut out: Vec<Lit> = Vec::with_capacity(c.len());
        for (i, &l) in c.iter().enumerate() {
            if self.lit_value(l) == Some(true) {
                return true;
            }
            if i + 1 < c.len() && c[i + 1] == !l {
                return true; // tautology: contains both l and !l
            }
            if self.lit_value(l) != Some(false) {
                out.push(l);
            }
        }
        match out.len() {
            0 => {
                self.unsat = true;
                false
            }
            1 => {
                self.enqueue(out[0], None);
                if self.propagate().is_some() {
                    self.unsat = true;
                }
                !self.unsat
            }
            _ => {
                self.attach(out, false);
                true
            }
        }
    }

    fn attach(&mut self, lits: Vec<Lit>, learnt: bool) -> CRef {
        let cref = self.clauses.len() as CRef;
        self.watches[lits[0].index()].push(cref);
        self.watches[lits[1].index()].push(cref);
        self.clauses.push(Clause { lits, learnt, activity: 0.0, deleted: false });
        if learnt {
            self.live_learnt += 1;
        }
        cref
    }

    fn enqueue(&mut self, p: Lit, reason: Option<CRef>) {
        let v = p.var() as usize;
        debug_assert_eq!(self.assign[v], 0);
        self.assign[v] = if p.is_neg() { -1 } else { 1 };
        self.level[v] = self.decision_level() as u32;
        self.reason[v] = reason;
        self.phase[v] = !p.is_neg();
        self.trail.push(p);
    }

    fn propagate(&mut self) -> Option<CRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut kept = 0;
            let mut conflict = None;
            let mut i = 0;
            while i < ws.len() {
                let cref = ws[i];
                i += 1;
                if conflict.is_some() {
                    ws[kept] = cref;
                    kept += 1;
                    continue;
                }
                let c = cref as usize;
                if self.clauses[c].lits[0] == false_lit {
                    self.clauses[c].lits.swap(0, 1);
                }
                debug_assert_eq!(self.clauses[c].lits[1], false_lit);
                let first = self.clauses[c].lits[0];
                if self.lit_value(first) == Some(true) {
                    ws[kept] = cref;
                    kept += 1;
                    continue;
                }
                let len = self.clauses[c].lits.len();
                let mut moved = false;
                for k in 2..len {
                    let lk = self.clauses[c].lits[k];
                    if self.lit_value(lk) != Some(false) {
                        self.clauses[c].lits.swap(1, k);
                        self.watches[lk.index()].push(cref);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Unit under the current assignment, or conflicting.
                ws[kept] = cref;
                kept += 1;
                if self.lit_value(first) == Some(false) {
                    conflict = Some(cref);
                } else {
                    self.enqueue(first, Some(cref));
                }
            }
            ws.truncate(kept);
            debug_assert!(self.watches[false_lit.index()].is_empty());
            self.watches[false_lit.index()] = ws;
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    fn backtrack(&mut self, target: usize) {
        if self.decision_level() <= target {
            return;
        }
        let keep = self.trail_lim[target];
        while self.trail.len() > keep {
            let p = self.trail.pop().unwrap();
            let v = p.var() as usize;
            self.assign[v] = 0;
            self.reason[v] = None;
            self.order.insert(p.var());
        }
        self.trail_lim.truncate(target);
        self.qhead = self.trail.len();
    }

    fn bump_var(&mut self, v: Var) {
        self.order.activity[v as usize] += self.var_inc;
        if self.order.activity[v as usize] > 1e100 {
            for a in &mut self.order.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.bumped(v);
    }

    fn bump_clause(&mut self, c: usize) {
        self.clauses[c].activity += self.cla_inc;
        if self.clauses[c].activity > 1e100 {
            for cl in &mut self.clauses {
                cl.activity *= 1e-100;
            }
            self.cla_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis.  Returns the learnt clause (asserting
    /// literal first, a highest-remaining-level literal second) and the
    /// backjump level.
    fn analyze(&mut self, confl: CRef) -> (Vec<Lit>, usize) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot 0 = asserting literal
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut confl = confl as usize;
        let current = self.decision_level() as u32;
        loop {
            if self.clauses[confl].learnt {
                self.bump_clause(confl);
            }
            let skip = usize::from(p.is_some());
            for k in skip..self.clauses[confl].lits.len() {
                let q = self.clauses[confl].lits[k];
                let v = q.var() as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(q.var());
                    if self.level[v] >= current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            loop {
                index -= 1;
                if self.seen[self.trail[index].var() as usize] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var() as usize] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !pl;
                break;
            }
            confl = self.reason[pl.var() as usize].expect("non-UIP literal has a reason") as usize;
            p = Some(pl);
        }
        for &l in &learnt[1..] {
            self.seen[l.var() as usize] = false;
        }
        let bt = if learnt.len() == 1 {
            0
        } else {
            // Move a highest-level literal to slot 1 so both watched
            // literals are the last to be falsified after the backjump.
            let mut best = 1;
            for k in 2..learnt.len() {
                if self.level[learnt[k].var() as usize] > self.level[learnt[best].var() as usize] {
                    best = k;
                }
            }
            learnt.swap(1, best);
            self.level[learnt[1].var() as usize] as usize
        };
        (learnt, bt)
    }

    /// Deletes the low-activity half of the long learnt clauses and clauses
    /// satisfied at level 0, then rebuilds the watch lists.  Only runs with
    /// an empty decision stack (between `solve` calls).
    fn reduce_learnts(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        for &p in &self.trail {
            self.reason[p.var() as usize] = None;
        }
        let mut victims: Vec<CRef> = (0..self.clauses.len() as CRef)
            .filter(|&c| {
                let cl = &self.clauses[c as usize];
                cl.learnt && !cl.deleted && cl.lits.len() > 2
            })
            .collect();
        victims.sort_by(|&a, &b| {
            let (ca, cb) = (&self.clauses[a as usize], &self.clauses[b as usize]);
            ca.activity.total_cmp(&cb.activity).then(b.cmp(&a))
        });
        for &c in victims.iter().take(victims.len() / 2) {
            self.delete_clause(c as usize);
        }
        // Rebuild watches; drop clauses decided at level 0 along the way.
        for w in &mut self.watches {
            w.clear();
        }
        for c in 0..self.clauses.len() {
            if self.clauses[c].deleted {
                continue;
            }
            let satisfied = self.clauses[c].lits.iter().any(|&l| self.lit_value(l) == Some(true));
            if satisfied {
                self.delete_clause(c);
                continue;
            }
            let lits = std::mem::take(&mut self.clauses[c].lits);
            self.clauses[c].lits =
                lits.into_iter().filter(|l| self.assign[l.var() as usize] == 0).collect();
            debug_assert!(self.clauses[c].lits.len() >= 2, "non-unit survives level-0 cleanup");
            let cref = c as CRef;
            self.watches[self.clauses[c].lits[0].index()].push(cref);
            self.watches[self.clauses[c].lits[1].index()].push(cref);
        }
        self.learnt_cap += self.learnt_cap / 2;
    }

    fn delete_clause(&mut self, c: usize) {
        if self.clauses[c].learnt {
            self.live_learnt -= 1;
        }
        self.clauses[c].deleted = true;
        self.clauses[c].lits = Vec::new();
    }

    /// Solves without assumptions, budget, or interruption.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_limited(&[], None, &mut || false)
    }

    /// Solves under `assumptions` (tried as the first decisions, in order).
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solve_limited(assumptions, None, &mut || false)
    }

    /// Solves under `assumptions` with an optional conflict `budget`;
    /// `interrupted` is polled every 1024 conflicts and aborts the search
    /// with [`SolveResult::Unknown`] when it returns `true`.
    pub fn solve_limited(
        &mut self,
        assumptions: &[Lit],
        budget: Option<u64>,
        interrupted: &mut dyn FnMut() -> bool,
    ) -> SolveResult {
        if self.unsat {
            return SolveResult::Unsat;
        }
        self.backtrack(0);
        if self.propagate().is_some() {
            self.unsat = true;
            return SolveResult::Unsat;
        }
        if self.live_learnt > self.learnt_cap {
            self.reduce_learnts();
        }
        let start_conflicts = self.stats.conflicts;
        let mut restart_round: u64 = 0;
        let mut restart_limit = 128 * luby(restart_round);
        let mut conflicts_this_round: u64 = 0;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_this_round += 1;
                if self.decision_level() == 0 {
                    self.unsat = true;
                    return SolveResult::Unsat;
                }
                // The first `assumptions.len()` decision levels are always
                // assumption decisions, so a conflict there refutes them.
                if self.decision_level() <= assumptions.len() {
                    self.backtrack(0);
                    return SolveResult::Unsat;
                }
                let (learnt, bt) = self.analyze(confl);
                self.backtrack(bt);
                self.stats.learnt += 1;
                if learnt.len() == 1 {
                    self.enqueue(learnt[0], None);
                } else {
                    let cref = self.attach(learnt, true);
                    self.bump_clause(cref as usize);
                    let assert_lit = self.clauses[cref as usize].lits[0];
                    self.enqueue(assert_lit, Some(cref));
                }
                self.var_inc /= 0.95;
                self.cla_inc /= 0.999;
                if let Some(b) = budget {
                    if self.stats.conflicts - start_conflicts >= b {
                        self.backtrack(0);
                        return SolveResult::Unknown;
                    }
                }
                if self.stats.conflicts.is_multiple_of(1024) && interrupted() {
                    self.backtrack(0);
                    return SolveResult::Unknown;
                }
                if conflicts_this_round >= restart_limit {
                    self.stats.restarts += 1;
                    restart_round += 1;
                    restart_limit = 128 * luby(restart_round);
                    conflicts_this_round = 0;
                    self.backtrack(0);
                }
            } else if self.decision_level() < assumptions.len() {
                let a = assumptions[self.decision_level()];
                match self.lit_value(a) {
                    Some(true) => self.trail_lim.push(self.trail.len()),
                    Some(false) => {
                        self.backtrack(0);
                        return SolveResult::Unsat;
                    }
                    None => {
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(a, None);
                    }
                }
            } else {
                // Free decision by activity, with the saved phase.
                let mut decision = None;
                while let Some(v) = self.order.pop() {
                    if self.assign[v as usize] == 0 {
                        decision = Some(v);
                        break;
                    }
                }
                match decision {
                    None => {
                        self.model = self.assign.clone();
                        self.backtrack(0);
                        return SolveResult::Sat;
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(Lit::new(v, !self.phase[v as usize]), None);
                    }
                }
            }
        }
    }

    /// Value of `v` in the model of the last [`SolveResult::Sat`] answer.
    ///
    /// Models are total: every allocated variable has a value.
    pub fn model_value(&self, v: Var) -> bool {
        self.model[v as usize] > 0
    }
}

/// The Luby sequence 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 … (0-indexed).
fn luby(i: u64) -> u64 {
    let mut size: u64 = 1;
    let mut seq: u32 = 0;
    while size < i + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    let mut i = i;
    while size - 1 != i {
        size = (size - 1) / 2;
        seq -= 1;
        i %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| Lit::pos(s.new_var())).collect()
    }

    #[test]
    fn luby_prefix_is_standard() {
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn unit_clauses_propagate_into_model() {
        let mut s = Solver::new();
        let l = vars(&mut s, 3);
        assert!(s.add_clause(&[l[0]]));
        assert!(s.add_clause(&[!l[1]]));
        assert!(s.add_clause(&[!l[0], l[1], l[2]]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model_value(0));
        assert!(!s.model_value(1));
        assert!(s.model_value(2));
    }

    #[test]
    fn contradictory_units_are_unsat() {
        let mut s = Solver::new();
        let l = vars(&mut s, 1);
        assert!(s.add_clause(&[l[0]]));
        assert!(!s.add_clause(&[!l[0]]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn xor_chain_parity_is_unsat() {
        // x1 ^ x2 = 1, x2 ^ x3 = 1, x1 ^ x3 = 1 has odd total parity.
        let mut s = Solver::new();
        let l = vars(&mut s, 3);
        let xor1 = |s: &mut Solver, a: Lit, b: Lit| {
            assert!(s.add_clause(&[a, b]));
            assert!(s.add_clause(&[!a, !b]));
        };
        xor1(&mut s, l[0], l[1]);
        xor1(&mut s, l[1], l[2]);
        xor1(&mut s, l[0], l[2]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_restrict_then_release() {
        let mut s = Solver::new();
        let l = vars(&mut s, 2);
        assert!(s.add_clause(&[l[0], l[1]]));
        assert_eq!(s.solve_with(&[!l[0], !l[1]]), SolveResult::Unsat);
        // The refutation was only under assumptions: the formula stays sat.
        assert_eq!(s.solve_with(&[!l[0]]), SolveResult::Sat);
        assert!(s.model_value(1));
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn selector_retirement_disables_temp_clauses() {
        let mut s = Solver::new();
        let l = vars(&mut s, 2);
        let sel = Lit::pos(s.new_var());
        assert!(s.add_clause(&[l[0]]));
        assert!(s.add_clause(&[!sel, !l[0]])); // sel → !x0: contradiction
        assert_eq!(s.solve_with(&[sel]), SolveResult::Unsat);
        assert!(s.add_clause(&[!sel]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model_value(l[0].var()));
    }

    /// Pigeonhole principle: `holes + 1` pigeons into `holes` holes.
    pub(crate) fn pigeonhole(s: &mut Solver, holes: usize) {
        let pigeons = holes + 1;
        let p: Vec<Vec<Lit>> =
            (0..pigeons).map(|_| (0..holes).map(|_| Lit::pos(s.new_var())).collect()).collect();
        for row in &p {
            assert!(s.add_clause(row));
        }
        for h in 0..holes {
            for (i, pi) in p.iter().enumerate() {
                for pj in &p[i + 1..] {
                    assert!(s.add_clause(&[!pi[h], !pj[h]]));
                }
            }
        }
    }

    #[test]
    fn pigeonhole_is_unsat() {
        for holes in 2..=5 {
            let mut s = Solver::new();
            pigeonhole(&mut s, holes);
            assert_eq!(s.solve(), SolveResult::Unsat, "php({holes})");
        }
    }

    #[test]
    fn conflict_budget_aborts_with_unknown() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 8); // hard enough to not finish in 10 conflicts
        assert_eq!(s.solve_limited(&[], Some(10), &mut || false), SolveResult::Unknown);
    }

    #[test]
    fn interruption_aborts_with_unknown() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 9);
        let mut polls = 0u32;
        let r = s.solve_limited(&[], None, &mut || {
            polls += 1;
            true
        });
        assert_eq!(r, SolveResult::Unknown);
        assert!(polls > 0);
    }

    /// Deterministic splitmix64, for seeded test instances.
    pub(crate) fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Random 3-SAT with a planted solution — satisfiable by construction.
    pub(crate) fn planted_3sat(s: &mut Solver, n: usize, m: usize, seed: u64) {
        let mut st = seed;
        let planted: Vec<bool> = (0..n).map(|_| splitmix(&mut st) & 1 == 1).collect();
        let lits: Vec<Lit> = (0..n).map(|_| Lit::pos(s.new_var())).collect();
        let mut added = 0;
        while added < m {
            let mut clause = Vec::with_capacity(3);
            let mut satisfied = false;
            for _ in 0..3 {
                let v = (splitmix(&mut st) % n as u64) as usize;
                let neg = splitmix(&mut st) & 1 == 1;
                clause.push(Lit::new(lits[v].var(), neg));
                satisfied |= planted[v] != neg;
            }
            if satisfied {
                assert!(s.add_clause(&clause));
                added += 1;
            }
        }
    }

    #[test]
    fn planted_3sat_is_sat_and_model_satisfies_all_clauses() {
        let mut s = Solver::new();
        planted_3sat(&mut s, 120, 480, 0xfeed);
        assert_eq!(s.solve(), SolveResult::Sat);
        for c in &s.clauses {
            if c.deleted {
                continue;
            }
            assert!(
                c.lits.iter().any(|&l| s.model_value(l.var()) != l.is_neg()),
                "model violates a clause"
            );
        }
    }

    #[test]
    fn solver_runs_are_deterministic() {
        let run = || {
            let mut s = Solver::new();
            pigeonhole(&mut s, 5);
            assert_eq!(s.solve(), SolveResult::Unsat);
            (s.stats.conflicts, s.stats.decisions, s.stats.propagations)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn learnt_reduction_keeps_answers_correct() {
        let mut s = Solver::new();
        s.learnt_cap = 50; // force reductions between the solve calls below
        planted_3sat(&mut s, 80, 330, 7);
        let lits: Vec<Lit> = (0..80).map(|v| Lit::pos(v as Var)).collect();
        for round in 0..6 {
            assert_eq!(s.solve(), SolveResult::Sat, "round {round}");
            // Pin one variable to its complement occasionally to force work.
            let v = (round * 13) % 80;
            let asm = Lit::new(lits[v].var(), s.model_value(lits[v].var()));
            let _ = s.solve_with(&[asm]); // sat or unsat, must not corrupt state
            assert_eq!(s.solve(), SolveResult::Sat, "round {round} re-solve");
        }
    }
}
