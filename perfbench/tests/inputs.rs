//! The seeded generator: one seed gives byte-identical inputs, another
//! seed gives different ones.

use perfbench::gen::{EditPlan, Request, ServePlan};

/// Every input a run of each workload draws from `seed`: the base
/// programs, a prefix of their edit and module-request sequences and of
/// the serve stream.
fn inputs(seed: u64) -> Vec<String> {
    let mut out = Vec::new();
    for (name, groups, per_group) in [("scale_flat", 32, 32), ("fullstack_ctx", 16, 32)] {
        let mut plan = EditPlan::new(seed, name, groups, per_group);
        out.push(plan.base.source());
        for _ in 0..8 {
            let (leaf, edited) = plan.next_edit();
            out.push(format!("{leaf}\n{}", edited.source()));
            let (group, module) = plan.next_module();
            out.push(format!("{group}\n{}", module.source()));
        }
    }
    let mut serve = ServePlan::new(seed, 20);
    out.push(serve.base.source());
    for _ in 0..10 {
        out.push(format!("{:?}", serve.next_segment()));
    }
    out
}

#[test]
fn one_seed_gives_byte_identical_inputs() {
    assert_eq!(inputs(7), inputs(7));
}

#[test]
fn another_seed_gives_different_inputs() {
    let (a, b) = (inputs(7), inputs(8));
    assert_eq!(a.len(), b.len());
    // Every input differs, not just some: each stream draws from the seed.
    for (x, y) in a.iter().zip(&b) {
        assert_ne!(x, y);
    }
}

#[test]
fn edits_change_exactly_one_leaf() {
    let mut plan = EditPlan::new(3, "scale_flat", 4, 8);
    for _ in 0..50 {
        let (leaf, edited) = plan.next_edit();
        let changed: Vec<usize> = (0..plan.base.leaves.len())
            .filter(|&i| plan.base.leaves[i] != edited.leaves[i])
            .collect();
        assert_eq!(changed, vec![leaf]);
    }
}

#[test]
fn module_requests_edit_one_leaf_of_one_dispatcher() {
    let mut plan = EditPlan::new(3, "fullstack_ctx", 4, 8);
    for _ in 0..50 {
        let (group, module) = plan.next_module();
        let original = &plan.base.leaves[group * 8..(group + 1) * 8];
        assert_eq!((module.groups, module.per_group), (1, 8));
        let changed = (0..8).filter(|&i| module.leaves[i] != original[i]).count();
        assert_eq!(changed, 1);
    }
}

#[test]
fn fresh_programs_never_repeat_within_a_stream() {
    // A repeated edit or first-sight program would hit the store, and
    // the longer a run, the more of them would.
    let mut plan = EditPlan::new(5, "scale_flat", 4, 8);
    let mut seen = std::collections::HashSet::new();
    for _ in 0..500 {
        assert!(seen.insert(plan.next_edit().1.source()));
    }
    let mut serve = ServePlan::new(5, 10);
    let mut fresh = std::collections::HashSet::new();
    for _ in 0..100 {
        serve.next_segment();
    }
    for request in serve.issued() {
        if let Request::FirstSight(p) | Request::Edit(p) = request {
            assert!(fresh.insert(p.source()));
        }
    }
    assert!(fresh.len() > 300);
}
