//! The call graph: recursion detection and bottom-up analysis order.
//!
//! MISRA-C:2004 rule 16.2 forbids direct and indirect recursion; the paper
//! explains why: recursion creates cycles in the call graph, which — like
//! irreducible loops — cannot be bounded automatically and poison the
//! bottom-up WCET computation. [`CallGraph::recursive_functions`] is the
//! binary-level check behind that rule, and
//! [`CallGraph::bottom_up_order`] is the schedule used by the
//! interprocedural path analysis (callees before callers).

use std::collections::{BTreeMap, BTreeSet};

use wcet_isa::Addr;

use crate::graph::Program;

/// The program call graph over function entry addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallGraph {
    /// Caller entry → set of callee entries.
    callees: BTreeMap<Addr, BTreeSet<Addr>>,
    /// Callee entry → set of caller entries.
    callers: BTreeMap<Addr, BTreeSet<Addr>>,
    /// Call sites: `(site address, caller entry, callee entry)`.
    sites: Vec<(Addr, Addr, Addr)>,
    /// Functions participating in a call-graph cycle.
    recursive: BTreeSet<Addr>,
    /// Functions in bottom-up (callee-first) order; recursive SCCs appear
    /// as arbitrary-order groups.
    bottom_up: Vec<Addr>,
    /// Strongly connected components, callee-first.
    sccs: Vec<Vec<Addr>>,
}

impl CallGraph {
    /// Builds the call graph of a reconstructed program.
    ///
    /// # Example
    ///
    /// ```
    /// use wcet_isa::asm::assemble;
    /// use wcet_cfg::graph::{reconstruct, TargetResolver};
    /// use wcet_cfg::callgraph::CallGraph;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let image = assemble("main: call f\n halt\nf: call f\n ret")?;
    /// let p = reconstruct(&image, &TargetResolver::empty())?;
    /// let cg = CallGraph::build(&p);
    /// assert_eq!(cg.recursive_functions().len(), 1); // f calls itself
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn build(program: &Program) -> CallGraph {
        let mut callees: BTreeMap<Addr, BTreeSet<Addr>> = BTreeMap::new();
        let mut callers: BTreeMap<Addr, BTreeSet<Addr>> = BTreeMap::new();
        let mut sites = Vec::new();
        for (&fun, cfg) in &program.functions {
            callees.entry(fun).or_default();
            for (site, targets) in cfg.call_sites() {
                for callee in targets {
                    callees.entry(fun).or_default().insert(callee);
                    callers.entry(callee).or_default().insert(fun);
                    sites.push((site, fun, callee));
                }
            }
        }

        let (recursive, bottom_up, sccs) = scc_analysis(&callees);

        CallGraph {
            callees,
            callers,
            sites,
            recursive,
            bottom_up,
            sccs,
        }
    }

    /// Direct callees of `fun`.
    #[must_use]
    pub fn callees_of(&self, fun: Addr) -> Vec<Addr> {
        self.callees
            .get(&fun)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Direct callers of `fun`.
    #[must_use]
    pub fn callers_of(&self, fun: Addr) -> Vec<Addr> {
        self.callers
            .get(&fun)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// All call sites as `(site address, caller, callee)`.
    #[must_use]
    pub fn sites(&self) -> &[(Addr, Addr, Addr)] {
        &self.sites
    }

    /// Functions involved in direct or indirect recursion.
    #[must_use]
    pub fn recursive_functions(&self) -> Vec<Addr> {
        self.recursive.iter().copied().collect()
    }

    /// Returns true if `fun` participates in a call-graph cycle.
    #[must_use]
    pub fn is_recursive(&self, fun: Addr) -> bool {
        self.recursive.contains(&fun)
    }

    /// Returns true if the program has any recursion at all.
    #[must_use]
    pub fn has_recursion(&self) -> bool {
        !self.recursive.is_empty()
    }

    /// Functions in callee-before-caller order — the schedule for
    /// bottom-up interprocedural WCET computation.
    #[must_use]
    pub fn bottom_up_order(&self) -> &[Addr] {
        &self.bottom_up
    }

    /// The members of `fun`'s call-graph cycle (including `fun`), or just
    /// `[fun]` when it is not recursive.
    #[must_use]
    pub fn scc_members(&self, fun: Addr) -> Vec<Addr> {
        self.sccs
            .iter()
            .find(|c| c.contains(&fun))
            .cloned()
            .unwrap_or_else(|| vec![fun])
    }

    /// The reverse-dependency closure of `seeds`: every function that can
    /// (transitively) reach a seed through call edges, *including* the
    /// seeds themselves. This is the dirtiness propagation primitive of
    /// the incremental re-analysis engine: when a function's content
    /// changes, exactly this set of WCET results may change — a caller's
    /// bound embeds its callees' bounds, so invalidation flows
    /// callee-to-caller, never sideways.
    #[must_use]
    pub fn transitive_callers(&self, seeds: &BTreeSet<Addr>) -> BTreeSet<Addr> {
        let mut dirty: BTreeSet<Addr> = seeds.clone();
        let mut work: Vec<Addr> = seeds.iter().copied().collect();
        while let Some(f) = work.pop() {
            for caller in self.callers.get(&f).into_iter().flatten() {
                if dirty.insert(*caller) {
                    work.push(*caller);
                }
            }
        }
        dirty
    }

    /// The bottom-up *wavefront*: SCC groups partitioned into levels such
    /// that every callee outside a group lies in an earlier level. Groups
    /// within one level share no call edges, so their analyses are
    /// independent — the schedule for the parallel per-function phases.
    ///
    /// Determinism: concatenating the levels (and the groups within each
    /// level, in order) yields a fixed callee-before-caller order; members
    /// of a group appear in the same relative order as in
    /// [`Self::bottom_up_order`].
    #[must_use]
    pub fn bottom_up_levels(&self) -> Vec<Vec<Vec<Addr>>> {
        let mut scc_of: BTreeMap<Addr, usize> = BTreeMap::new();
        for (k, comp) in self.sccs.iter().enumerate() {
            for &f in comp {
                scc_of.insert(f, k);
            }
        }
        // Tarjan emits SCCs callee-first, so every callee group's level is
        // final by the time its callers are leveled.
        let mut level = vec![0usize; self.sccs.len()];
        for (k, comp) in self.sccs.iter().enumerate() {
            let mut lvl = 0;
            for f in comp {
                for callee in self.callees.get(f).into_iter().flatten() {
                    let ck = scc_of[callee];
                    if ck != k {
                        lvl = lvl.max(level[ck] + 1);
                    }
                }
            }
            level[k] = lvl;
        }
        let depth = level.iter().map(|&l| l + 1).max().unwrap_or(0);
        let mut levels = vec![Vec::new(); depth];
        for (k, comp) in self.sccs.iter().enumerate() {
            levels[level[k]].push(comp.clone());
        }
        levels
    }
}

// ---------------------------------------------------------------------
// Call-string contexts (VIVU-style context expansion)
// ---------------------------------------------------------------------

/// Identifier of one *(function, call string)* analysis context. Indexes
/// [`ContextTable::info`]. Ids are assigned in `(function, call string)`
/// order, so iteration over them is deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CtxId(pub usize);

impl std::fmt::Display for CtxId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ctx{}", self.0)
    }
}

/// One enumerated context: a function together with the (truncated) call
/// string under which it is analyzed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextInfo {
    /// The function this context belongs to.
    pub function: Addr,
    /// Call-site addresses, outermost first, most recent call last;
    /// length ≤ the enumeration depth. Empty for the task entry, for
    /// members of recursive SCCs (truncated to the merged behaviour),
    /// and for every function at depth 0.
    pub call_string: Vec<Addr>,
    /// Producing call edges `(caller context, call-site address)`, in
    /// sorted order. Empty for the entry function's root context and for
    /// fallback contexts of functions without a resolved call path.
    pub preds: Vec<(CtxId, Addr)>,
}

/// The enumerated *(function, call string)* contexts of a program: the
/// unit set of the context-sensitive pipeline. At depth 0 every function
/// has exactly one context with the empty string — the classic merged
/// analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextTable {
    depth: usize,
    contexts: Vec<ContextInfo>,
    by_function: BTreeMap<Addr, Vec<CtxId>>,
    /// `(caller context, site, callee)` → callee context.
    edges: BTreeMap<(CtxId, Addr, Addr), CtxId>,
}

impl ContextTable {
    /// The enumeration depth `k`.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Total number of contexts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.contexts.len()
    }

    /// Returns true if no contexts were enumerated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.contexts.is_empty()
    }

    /// The context data for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn info(&self, id: CtxId) -> &ContextInfo {
        &self.contexts[id.0]
    }

    /// The contexts of one function, in id order. Every reconstructed
    /// function has at least one.
    #[must_use]
    pub fn ctxs_of(&self, fun: Addr) -> &[CtxId] {
        self.by_function
            .get(&fun)
            .map(Vec::as_slice)
            .unwrap_or_default()
    }

    /// The context a call from `caller_ctx` at `site` targets when it
    /// resolves to `callee`. `None` only for call edges that were not
    /// part of the enumeration (e.g. an unreachable caller context).
    #[must_use]
    pub fn callee_ctx(&self, caller_ctx: CtxId, site: Addr, callee: Addr) -> Option<CtxId> {
        self.edges.get(&(caller_ctx, site, callee)).copied()
    }

    /// Iterates over all `(id, info)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (CtxId, &ContextInfo)> {
        self.contexts.iter().enumerate().map(|(i, c)| (CtxId(i), c))
    }
}

impl CallGraph {
    /// Enumerates the *(function, call-string)* contexts reachable from
    /// `entry`, with call strings truncated to the last `depth` sites —
    /// the virtual-inlining unit set (reference \[13\]'s VIVU scheme,
    /// restricted to call contexts; loop contexts stay with the virtual
    /// unroller).
    ///
    /// Truncation rules:
    ///
    /// * `depth == 0` — every function keeps the empty string: exactly
    ///   today's merged per-function analysis.
    /// * recursive functions (members of call-graph cycles) are truncated
    ///   to the empty string — the existing SCC-merged behaviour — so the
    ///   enumeration terminates without annotations.
    /// * otherwise a call from `(caller, s)` at `site` reaches
    ///   `(callee, last_k(s · site))`.
    ///
    /// `functions` is the full reconstructed function set; any member
    /// without a resolved call path from `entry` (e.g. reached only
    /// through unresolved indirections) receives a fallback empty-string
    /// context with no producers, so the pipeline still analyzes it
    /// (conservatively, from the ⊤ entry state).
    #[must_use]
    pub fn enumerate_contexts<'a>(
        &self,
        functions: impl IntoIterator<Item = &'a Addr>,
        entry: Addr,
        depth: usize,
    ) -> ContextTable {
        type Key = (Addr, Vec<Addr>);
        // Call sites grouped by caller for the walk below.
        let mut sites_of: BTreeMap<Addr, Vec<(Addr, Addr)>> = BTreeMap::new();
        for &(site, caller, callee) in &self.sites {
            sites_of.entry(caller).or_default().push((site, callee));
        }

        let mut preds: BTreeMap<Key, BTreeSet<(Key, Addr)>> = BTreeMap::new();
        let root: Key = (entry, Vec::new());
        preds.insert(root.clone(), BTreeSet::new());
        let mut work: Vec<Key> = vec![root];
        while let Some(key) = work.pop() {
            let (fun, string) = &key;
            for (site, callee) in sites_of.get(fun).into_iter().flatten() {
                let child_string = if depth == 0 || self.is_recursive(*callee) {
                    Vec::new()
                } else {
                    let mut s = string.clone();
                    s.push(*site);
                    if s.len() > depth {
                        s.drain(..s.len() - depth);
                    }
                    s
                };
                let child: Key = (*callee, child_string);
                let entry = preds.entry(child.clone()).or_insert_with(|| {
                    work.push(child.clone());
                    BTreeSet::new()
                });
                entry.insert((key.clone(), *site));
            }
        }
        // Fallback contexts for functions without a resolved call path.
        let covered: BTreeSet<Addr> = preds.keys().map(|(f, _)| *f).collect();
        for &fun in functions {
            if !covered.contains(&fun) {
                preds.insert((fun, Vec::new()), BTreeSet::new());
            }
        }

        // Ids in sorted (function, string) order — `preds` is a BTreeMap,
        // so its iteration order *is* that order.
        let ids: BTreeMap<&Key, CtxId> = preds
            .keys()
            .enumerate()
            .map(|(i, k)| (k, CtxId(i)))
            .collect();
        let mut contexts = Vec::with_capacity(preds.len());
        let mut by_function: BTreeMap<Addr, Vec<CtxId>> = BTreeMap::new();
        let mut edges: BTreeMap<(CtxId, Addr, Addr), CtxId> = BTreeMap::new();
        for (i, ((fun, string), pred_keys)) in preds.iter().enumerate() {
            let id = CtxId(i);
            let pred_ids: Vec<(CtxId, Addr)> = pred_keys
                .iter()
                .map(|(pk, site)| (ids[pk], *site))
                .collect();
            for &(caller, site) in &pred_ids {
                edges.insert((caller, site, *fun), id);
            }
            by_function.entry(*fun).or_default().push(id);
            contexts.push(ContextInfo {
                function: *fun,
                call_string: string.clone(),
                preds: pred_ids,
            });
        }
        ContextTable {
            depth,
            contexts,
            by_function,
            edges,
        }
    }
}

/// Tarjan SCC over the call graph; returns (recursive set, bottom-up
/// order, SCC partition).
fn scc_analysis(
    callees: &BTreeMap<Addr, BTreeSet<Addr>>,
) -> (BTreeSet<Addr>, Vec<Addr>, Vec<Vec<Addr>>) {
    struct State<'a> {
        graph: &'a BTreeMap<Addr, BTreeSet<Addr>>,
        index: usize,
        indices: BTreeMap<Addr, usize>,
        lowlink: BTreeMap<Addr, usize>,
        on_stack: BTreeSet<Addr>,
        stack: Vec<Addr>,
        comps: Vec<Vec<Addr>>,
    }

    fn connect(s: &mut State<'_>, v: Addr) {
        s.indices.insert(v, s.index);
        s.lowlink.insert(v, s.index);
        s.index += 1;
        s.stack.push(v);
        s.on_stack.insert(v);
        let succs: Vec<Addr> = s
            .graph
            .get(&v)
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default();
        for w in succs {
            if !s.indices.contains_key(&w) {
                connect(s, w);
                let low = s.lowlink[&v].min(s.lowlink[&w]);
                s.lowlink.insert(v, low);
            } else if s.on_stack.contains(&w) {
                let low = s.lowlink[&v].min(s.indices[&w]);
                s.lowlink.insert(v, low);
            }
        }
        if s.lowlink[&v] == s.indices[&v] {
            let mut comp = Vec::new();
            loop {
                let w = s.stack.pop().expect("nonempty");
                s.on_stack.remove(&w);
                comp.push(w);
                if w == v {
                    break;
                }
            }
            s.comps.push(comp);
        }
    }

    let mut state = State {
        graph: callees,
        index: 0,
        indices: BTreeMap::new(),
        lowlink: BTreeMap::new(),
        on_stack: BTreeSet::new(),
        stack: Vec::new(),
        comps: Vec::new(),
    };
    for &fun in callees.keys() {
        if !state.indices.contains_key(&fun) {
            connect(&mut state, fun);
        }
    }

    let mut recursive = BTreeSet::new();
    let mut bottom_up = Vec::new();
    // Tarjan emits SCCs in reverse topological order: callees first.
    for comp in &state.comps {
        let self_loop =
            comp.len() == 1 && callees.get(&comp[0]).is_some_and(|s| s.contains(&comp[0]));
        if comp.len() > 1 || self_loop {
            recursive.extend(comp.iter().copied());
        }
        bottom_up.extend(comp.iter().copied());
    }
    let sccs = state.comps;
    (recursive, bottom_up, sccs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{reconstruct, TargetResolver};
    use wcet_isa::asm::assemble;

    fn cg(src: &str) -> (Program, CallGraph) {
        let p = reconstruct(&assemble(src).unwrap(), &TargetResolver::empty()).unwrap();
        let g = CallGraph::build(&p);
        (p, g)
    }

    #[test]
    fn acyclic_program_not_recursive() {
        let (p, g) = cg("main: call f\n call g\n halt\nf: ret\ng: call f\n ret");
        assert!(!g.has_recursion());
        // Bottom-up order puts every callee before its callers, so `main`
        // comes last and `f` (called by both others) comes before `g`.
        let order = g.bottom_up_order();
        assert_eq!(*order.last().unwrap(), p.entry, "main analyzed last");
        let f = p
            .functions
            .keys()
            .copied()
            .find(|&a| g.callees_of(a).is_empty())
            .unwrap();
        let g_fun = p
            .functions
            .keys()
            .copied()
            .find(|&a| a != p.entry && a != f)
            .unwrap();
        let pos_of = |x: Addr| order.iter().position(|&a| a == x).unwrap();
        assert!(pos_of(f) < pos_of(g_fun));
    }

    #[test]
    fn direct_recursion_detected() {
        let (_, g) = cg("main: call f\n halt\nf: call f\n ret");
        assert_eq!(g.recursive_functions().len(), 1);
    }

    #[test]
    fn indirect_recursion_detected() {
        let (p, g) =
            cg("main: call f\n halt\nf: beq r1, r0, fdone\n call g\nfdone: ret\ng: call f\n ret");
        assert_eq!(g.recursive_functions().len(), 2, "f and g form a cycle");
        assert!(!g.is_recursive(p.entry));
    }

    #[test]
    fn wavefront_levels_respect_call_edges() {
        // main → f, g; g → f. Levels: {f}, {g}, {main}.
        let (p, g) = cg("main: call f\n call g\n halt\nf: ret\ng: call f\n ret");
        let levels = g.bottom_up_levels();
        assert_eq!(levels.len(), 3);
        for level in &levels {
            assert_eq!(level.len(), 1, "chain graph: one group per level");
        }
        assert_eq!(levels[2][0], vec![p.entry]);
        // Every callee sits in a strictly earlier level than its caller.
        let level_of = |x: Addr| {
            levels
                .iter()
                .position(|lvl| lvl.iter().any(|grp| grp.contains(&x)))
                .unwrap()
        };
        for f in p.functions.keys() {
            for callee in g.callees_of(*f) {
                assert!(level_of(callee) < level_of(*f));
            }
        }
        // Flattened levels cover exactly the bottom-up order's functions.
        let flat: Vec<Addr> = levels.iter().flatten().flatten().copied().collect();
        let mut sorted = flat.clone();
        sorted.sort_unstable();
        let mut expected = g.bottom_up_order().to_vec();
        expected.sort_unstable();
        assert_eq!(sorted, expected);
    }

    #[test]
    fn independent_callees_share_a_level() {
        let (p, g) = cg("main: call f\n call g\n halt\nf: ret\ng: ret");
        let levels = g.bottom_up_levels();
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[0].len(), 2, "f and g are independent");
        assert_eq!(levels[1], vec![vec![p.entry]]);
    }

    #[test]
    fn recursive_cycle_stays_one_group() {
        let (p, g) =
            cg("main: call f\n halt\nf: beq r1, r0, fdone\n call g\nfdone: ret\ng: call f\n ret");
        let levels = g.bottom_up_levels();
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[0].len(), 1, "the f/g cycle is one group");
        assert_eq!(levels[0][0].len(), 2);
        assert_eq!(levels[1], vec![vec![p.entry]]);
    }

    #[test]
    fn transitive_callers_closure() {
        // main → g → f, main → h. Dirtying f reaches g and main but not h.
        let (p, g) = cg("main: call g\n call h\n halt\nf: ret\ng: call f\n ret\nh: ret");
        let f = p
            .functions
            .keys()
            .copied()
            .find(|&a| {
                g.callees_of(a).is_empty()
                    && !g.callers_of(a).is_empty()
                    && g.callers_of(a) != vec![p.entry]
            })
            .unwrap();
        let dirty = g.transitive_callers(&BTreeSet::from([f]));
        assert!(dirty.contains(&f), "seeds are included");
        assert!(dirty.contains(&p.entry), "root is reached through g");
        assert_eq!(dirty.len(), 3, "h is untouched: {dirty:?}");

        // The empty seed set stays empty; dirtying the root stays at the
        // root (nothing calls main).
        assert!(g.transitive_callers(&BTreeSet::new()).is_empty());
        assert_eq!(
            g.transitive_callers(&BTreeSet::from([p.entry])),
            BTreeSet::from([p.entry])
        );
    }

    #[test]
    fn transitive_callers_through_cycles() {
        // f ↔ g cycle called by main: dirtying f reaches g (cycle member)
        // and main.
        let (p, g) =
            cg("main: call f\n halt\nf: beq r1, r0, fdone\n call g\nfdone: ret\ng: call f\n ret");
        let f = g.recursive_functions()[0];
        let dirty = g.transitive_callers(&BTreeSet::from([f]));
        assert_eq!(dirty.len(), 3, "both cycle members and main: {dirty:?}");
        assert!(dirty.contains(&p.entry));
    }

    #[test]
    fn depth_zero_contexts_are_one_per_function() {
        let (p, g) = cg("main: call f\n call g\n halt\nf: ret\ng: call f\n ret");
        let table = g.enumerate_contexts(p.functions.keys(), p.entry, 0);
        assert_eq!(table.len(), p.functions.len());
        for (id, info) in table.iter() {
            assert!(info.call_string.is_empty(), "depth 0 keeps empty strings");
            assert_eq!(table.ctxs_of(info.function), &[id]);
        }
        // Every resolved call edge maps onto the callee's single context.
        for &(site, caller, callee) in g.sites() {
            let caller_ctx = table.ctxs_of(caller)[0];
            assert_eq!(
                table.callee_ctx(caller_ctx, site, callee),
                Some(table.ctxs_of(callee)[0])
            );
        }
    }

    #[test]
    fn depth_one_distinguishes_call_sites() {
        // main calls f twice: two distinct depth-1 contexts, each with one
        // producing edge from main's root context.
        let (p, g) = cg("main: call f\n call f\n halt\nf: ret");
        let f = p.functions.keys().copied().find(|&a| a != p.entry).unwrap();
        let table = g.enumerate_contexts(p.functions.keys(), p.entry, 1);
        assert_eq!(
            table.ctxs_of(p.entry).len(),
            1,
            "entry keeps its root context"
        );
        let f_ctxs = table.ctxs_of(f);
        assert_eq!(f_ctxs.len(), 2, "one context per call site");
        let main_ctx = table.ctxs_of(p.entry)[0];
        for &ctx in f_ctxs {
            let info = table.info(ctx);
            assert_eq!(info.function, f);
            assert_eq!(info.call_string.len(), 1);
            assert_eq!(info.preds, vec![(main_ctx, info.call_string[0])]);
            assert_eq!(
                table.callee_ctx(main_ctx, info.call_string[0], f),
                Some(ctx)
            );
        }
    }

    #[test]
    fn depth_truncation_keeps_most_recent_sites() {
        // main → g → f at depth 1: f's string holds only g's call site.
        let (p, g) = cg("main: call g\n halt\ng: call f\n ret\nf: ret");
        let f = p
            .functions
            .keys()
            .copied()
            .find(|&a| g.callees_of(a).is_empty())
            .unwrap();
        let table = g.enumerate_contexts(p.functions.keys(), p.entry, 1);
        let f_ctxs = table.ctxs_of(f);
        assert_eq!(f_ctxs.len(), 1);
        let info = table.info(f_ctxs[0]);
        assert_eq!(info.call_string.len(), 1, "truncated to the last site");
        let g_fun = g.callers_of(f)[0];
        let g_site = g
            .sites()
            .iter()
            .find(|(_, caller, callee)| *caller == g_fun && *callee == f)
            .map(|(s, _, _)| *s)
            .unwrap();
        assert_eq!(info.call_string, vec![g_site]);

        // Depth 2 keeps the full chain.
        let deep = g.enumerate_contexts(p.functions.keys(), p.entry, 2);
        let info2 = deep.info(deep.ctxs_of(f)[0]);
        assert_eq!(info2.call_string.len(), 2, "room for both sites");
    }

    #[test]
    fn recursion_truncates_to_merged_context() {
        let (p, g) =
            cg("main: call f\n halt\nf: beq r1, r0, fdone\n call g\nfdone: ret\ng: call f\n ret");
        let table = g.enumerate_contexts(p.functions.keys(), p.entry, 3);
        for f in g.recursive_functions() {
            let ctxs = table.ctxs_of(f);
            assert_eq!(ctxs.len(), 1, "recursive SCC members stay merged");
            assert!(table.info(ctxs[0]).call_string.is_empty());
        }
        assert!(!table.is_empty());
        assert_eq!(table.depth(), 3);
    }

    #[test]
    fn every_function_has_a_context() {
        let (p, g) = cg("main: call f\n halt\nf: ret");
        for depth in [0, 1, 4] {
            let table = g.enumerate_contexts(p.functions.keys(), p.entry, depth);
            for f in p.functions.keys() {
                assert!(
                    !table.ctxs_of(*f).is_empty(),
                    "function {f} has a context at depth {depth}"
                );
            }
        }
    }

    #[test]
    fn callers_and_callees() {
        let (p, g) = cg("main: call f\n halt\nf: ret");
        let f = p.functions.keys().copied().find(|&a| a != p.entry).unwrap();
        assert_eq!(g.callees_of(p.entry), vec![f]);
        assert_eq!(g.callers_of(f), vec![p.entry]);
        assert_eq!(g.sites().len(), 1);
    }
}
