//! # hidisc-workloads — the DIS benchmark and Stressmark kernels
//!
//! The paper evaluates HiDISC on the Atlantic Aerospace *Data-Intensive
//! Systems* benchmark suite and *DIS Stressmark* suite. The original
//! distributions are long gone; this crate reimplements the seven kernels
//! the paper reports (its Figures 8-10) directly in DISA assembly from the
//! published kernel definitions, with seeded synthetic data generators
//! that reproduce each kernel's memory-access class:
//!
//! | name | suite | access pattern |
//! |------|-------|----------------|
//! | `dm` | DIS | hash-index lookup + record gather (database) |
//! | `raytrace` | DIS | grid traversal + object gather + FP intersection |
//! | `pointer` | Stressmark | serial pointer chasing with window scans |
//! | `update` | Stressmark | indexed gather-modify-scatter |
//! | `field` | Stressmark | streaming byte scan (token matching) |
//! | `neighborhood` | Stressmark | image pair sampling + histogram update |
//! | `tc` | Stressmark | Floyd-Warshall transitive closure |
//!
//! Two further Stressmark members the paper did not plot are provided as
//! [`extras`]: `cornerturn` (matrix transpose) and `matrix` (sparse
//! matrix-vector products, the CG kernel).
//!
//! Every workload is a [`Workload`]: a sequential DISA program, an initial
//! register/memory state, and a Rust *reference result* recomputed
//! natively so tests can verify the kernel end-to-end.

#![forbid(unsafe_code)]

pub mod cornerturn;
pub mod dm;
pub mod field;
pub mod gen;
pub mod matrix;
pub mod micro;
pub mod neighborhood;
pub mod pointer;
pub mod raytrace;
pub mod tc;
pub mod update;

use hidisc_isa::mem::Memory;
use hidisc_isa::{IntReg, Program};

/// A ready-to-run benchmark kernel.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Benchmark name as used in the paper's figures.
    pub name: &'static str,
    /// The sequential DISA binary.
    pub prog: Program,
    /// Initial integer registers (parameters and base addresses).
    pub regs: Vec<(IntReg, i64)>,
    /// Initial data image.
    pub mem: Memory,
    /// Functional step budget (generously above the expected dynamic
    /// instruction count).
    pub max_steps: u64,
    /// Address of the 8-byte result word the kernel writes, and the value
    /// a correct run must leave there (computed natively by the
    /// generator).
    pub expected: Option<(u64, i64)>,
}

/// Problem-size scaling for the whole suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Tiny inputs for unit tests (thousands of dynamic instructions).
    Test,
    /// The sizes used by the paper-reproduction experiments.
    Paper,
    /// ~4x the paper sizes, for longer-running studies.
    Large,
}

impl Scale {
    /// Every scale, smallest first.
    pub const ALL: [Scale; 3] = [Scale::Test, Scale::Paper, Scale::Large];

    /// The lowercase name the CLI and the HTTP API use.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Test => "test",
            Scale::Paper => "paper",
            Scale::Large => "large",
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Scale {
    type Err = String;

    /// Parses a [`Scale::name`]; the error is the diagnostic `repro`
    /// prints and the service answers with.
    fn from_str(s: &str) -> Result<Scale, String> {
        Scale::ALL
            .into_iter()
            .find(|scale| scale.name() == s)
            .ok_or_else(|| format!("unknown scale `{s}` (use test|paper|large)"))
    }
}

/// Which published list a kernel belongs to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Set {
    Suite,
    Extra,
    Micro,
}

/// One row of the kernel registry: the name [`by_name`] resolves, the
/// list it belongs to, and the builder that generates it.
struct Kernel {
    name: &'static str,
    set: Set,
    build: fn(Scale, u64) -> Workload,
}

macro_rules! kernel {
    (Micro, $f:ident) => {
        Kernel {
            name: stringify!($f),
            set: Set::Micro,
            build: |scale, seed| micro::$f(&micro::Params::at(scale), seed),
        }
    };
    ($set:ident, $m:ident) => {
        Kernel {
            name: stringify!($m),
            set: Set::$set,
            build: |scale, seed| $m::build(&$m::Params::at(scale), seed),
        }
    };
}

/// Every kernel in suite/extras/micro order: the one name → builder
/// table behind [`suite`], [`extras`], [`micro::micro_suite`],
/// [`by_name`] and [`names`].
const KERNELS: [Kernel; 13] = [
    kernel!(Suite, dm),
    kernel!(Suite, raytrace),
    kernel!(Suite, pointer),
    kernel!(Suite, update),
    kernel!(Suite, field),
    kernel!(Suite, neighborhood),
    kernel!(Suite, tc),
    kernel!(Extra, cornerturn),
    kernel!(Extra, matrix),
    kernel!(Micro, lll1),
    kernel!(Micro, convolution),
    kernel!(Micro, saxpy),
    kernel!(Micro, sdot),
];

/// The names column of [`KERNELS`], for [`names`].
const NAMES: [&str; KERNELS.len()] = {
    let mut names = [""; KERNELS.len()];
    let mut i = 0;
    while i < KERNELS.len() {
        names[i] = KERNELS[i].name;
        i += 1;
    }
    names
};

/// Builds every kernel of one list, in table order.
fn build_set(set: Set, scale: Scale, seed: u64) -> Vec<Workload> {
    KERNELS
        .iter()
        .filter(|k| k.set == set)
        .map(|k| (k.build)(scale, seed))
        .collect()
}

/// Builds the full seven-benchmark suite in the paper's presentation
/// order (DM, RayTrace, Pointer, Update, Field, Neighborhood, TC).
pub fn suite(scale: Scale, seed: u64) -> Vec<Workload> {
    build_set(Set::Suite, scale, seed)
}

/// The remaining DIS Stressmark suite members the paper did not plot
/// (Corner-Turn, Matrix), provided for suite completeness. Not part of
/// [`suite`] — the paper-reproduction experiments use exactly its seven.
pub fn extras(scale: Scale, seed: u64) -> Vec<Workload> {
    build_set(Set::Extra, scale, seed)
}

/// Builds the one workload called `name` (a suite, extras or micro
/// kernel); `None` for a name [`names`] does not list. Only that
/// kernel's generator runs.
pub fn by_name(name: &str, scale: Scale, seed: u64) -> Option<Workload> {
    KERNELS
        .iter()
        .find(|k| k.name == name)
        .map(|k| (k.build)(scale, seed))
}

/// Every workload name [`by_name`] accepts, in suite/extras/micro order.
/// Read from the registry table, so listing names builds nothing.
pub fn names() -> &'static [&'static str] {
    &NAMES
}

/// Common memory-layout constants shared by the generators: workloads
/// place their data well apart so accidental overlap is impossible.
pub mod layout {
    /// First data region.
    pub const REGION_A: u64 = 0x0010_0000;
    /// Second data region.
    pub const REGION_B: u64 = 0x0080_0000;
    /// Third data region.
    pub const REGION_C: u64 = 0x00F0_0000;
    /// Result cell.
    pub const RESULT: u64 = 0x0200_0000;
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidisc_isa::interp::Interp;

    /// Every suite member must run functionally and produce its expected
    /// result.
    #[test]
    fn suite_runs_and_validates_at_test_scale() {
        for w in suite(Scale::Test, 42) {
            let mut i = Interp::new(&w.prog, w.mem.clone());
            for &(r, v) in &w.regs {
                i.set_reg(r, v);
            }
            let stats = i
                .run(w.max_steps)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(
                stats.instrs > 100,
                "{} trivially short: {}",
                w.name,
                stats.instrs
            );
            if let Some((addr, want)) = w.expected {
                let got = i.mem.read_i64(addr).unwrap();
                assert_eq!(got, want, "{} wrong result", w.name);
            }
        }
    }

    #[test]
    fn suite_has_seven_distinct_names() {
        let names: Vec<&str> = suite(Scale::Test, 1).iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            vec![
                "dm",
                "raytrace",
                "pointer",
                "update",
                "field",
                "neighborhood",
                "tc"
            ]
        );
    }

    #[test]
    fn scales_parse_back_from_their_names() {
        for scale in Scale::ALL {
            assert_eq!(scale.to_string().parse::<Scale>(), Ok(scale));
        }
        assert_eq!(
            "huge".parse::<Scale>(),
            Err("unknown scale `huge` (use test|paper|large)".to_string())
        );
        // Names are exact: the wire form is lowercase.
        assert!("Paper".parse::<Scale>().is_err());
    }

    #[test]
    fn extras_run_and_validate_at_test_scale() {
        for w in extras(Scale::Test, 42) {
            let mut i = Interp::new(&w.prog, w.mem.clone());
            for &(r, v) in &w.regs {
                i.set_reg(r, v);
            }
            i.run(w.max_steps)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            if let Some((addr, want)) = w.expected {
                assert_eq!(
                    i.mem.read_i64(addr).unwrap(),
                    want,
                    "{} wrong result",
                    w.name
                );
            }
        }
    }

    #[test]
    fn seeds_change_data_but_not_structure() {
        let a = by_name("pointer", Scale::Test, 1).unwrap();
        let b = by_name("pointer", Scale::Test, 2).unwrap();
        assert_eq!(a.prog.len(), b.prog.len());
        assert_ne!(a.mem.checksum(), b.mem.checksum());
    }

    #[test]
    fn programs_validate() {
        for w in suite(Scale::Test, 7) {
            w.prog
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        }
    }
}
