//! The name → builder registry: `by_name` must build exactly the workload
//! the list functions (`suite`, `extras`, `micro_suite`) build under the
//! same name, scale and seed, both must match the kernel modules' own
//! builders, and `names` must list them in that order.

use hidisc_workloads::{by_name, extras, micro::micro_suite, names, suite, Scale, Workload};
use hidisc_workloads::{cornerturn, dm, field, matrix, micro, neighborhood, pointer};
use hidisc_workloads::{raytrace, tc, update};

/// Every kernel built straight from its module, independent of the
/// registry table, in the documented suite/extras/micro order.
fn built_by_module(scale: Scale, seed: u64) -> Vec<Workload> {
    let mp = micro::Params::at(scale);
    vec![
        dm::build(&dm::Params::at(scale), seed),
        raytrace::build(&raytrace::Params::at(scale), seed),
        pointer::build(&pointer::Params::at(scale), seed),
        update::build(&update::Params::at(scale), seed),
        field::build(&field::Params::at(scale), seed),
        neighborhood::build(&neighborhood::Params::at(scale), seed),
        tc::build(&tc::Params::at(scale), seed),
        cornerturn::build(&cornerturn::Params::at(scale), seed),
        matrix::build(&matrix::Params::at(scale), seed),
        micro::lll1(&mp, seed),
        micro::convolution(&mp, seed),
        micro::saxpy(&mp, seed),
        micro::sdot(&mp, seed),
    ]
}

/// Asserts two builds of one kernel are the same instance: program,
/// parameter registers, data image, expected result and step budget.
fn assert_same(a: &Workload, b: &Workload, what: &str) {
    assert_eq!(a.name, b.name, "{what}: name");
    assert_eq!(
        format!("{:?}", a.prog),
        format!("{:?}", b.prog),
        "{what}: program"
    );
    assert_eq!(a.regs, b.regs, "{what}: regs");
    assert_eq!(a.mem.checksum(), b.mem.checksum(), "{what}: memory");
    assert_eq!(a.expected, b.expected, "{what}: expected");
    assert_eq!(a.max_steps, b.max_steps, "{what}: max_steps");
}

#[test]
fn by_name_builds_the_same_instance_as_the_lists() {
    for scale in [Scale::Test, Scale::Paper] {
        for seed in [1, 2003] {
            let listed: Vec<Workload> = suite(scale, seed)
                .into_iter()
                .chain(extras(scale, seed))
                .chain(micro_suite(scale, seed))
                .collect();
            let listed_names: Vec<&str> = listed.iter().map(|w| w.name).collect();
            assert_eq!(listed_names, names(), "list order at {scale}");
            let direct = built_by_module(scale, seed);
            assert_eq!(direct.len(), listed.len());
            for (d, w) in direct.iter().zip(&listed) {
                assert_same(w, d, &format!("listed {} at {scale}, seed {seed}", d.name));
            }
            for w in &listed {
                let one = by_name(w.name, scale, seed)
                    .unwrap_or_else(|| panic!("{} not resolvable", w.name));
                assert_same(&one, w, &format!("{} at {scale}, seed {seed}", w.name));
            }
        }
    }
}

#[test]
fn names_keep_their_order_and_unknown_names_build_nothing() {
    assert_eq!(
        names(),
        [
            "dm",
            "raytrace",
            "pointer",
            "update",
            "field",
            "neighborhood",
            "tc",
            "cornerturn",
            "matrix",
            "lll1",
            "convolution",
            "saxpy",
            "sdot",
        ]
    );
    for bad in ["nope", "", "DM", "dm "] {
        assert!(by_name(bad, Scale::Test, 1).is_none(), "{bad:?} resolved");
    }
}
