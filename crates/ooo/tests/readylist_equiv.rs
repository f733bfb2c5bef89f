//! Differential proof that the wakeup-driven ready-list issue scheduler is
//! invisible: for every benchmark of the suite and every machine model,
//! the default [`Scheduler::ReadyList`] must produce exactly the
//! statistics, cycle count and final memory of the retained
//! [`Scheduler::Scan`] path — the seed implementation's per-cycle walk of
//! the whole RUU.
//!
//! See DESIGN.md, "Ready-list issue scheduling", for the invariants
//! (wakeup completeness, oldest-first order, completion-heap/next_event
//! agreement) this test pins down.

use hidisc::{Machine, MachineConfig, Model, Scheduler};
use hidisc_slicer::{compile, CompilerConfig, ExecEnv};
use hidisc_workloads::{suite, Scale, Workload};

fn env_of(w: &Workload) -> ExecEnv {
    ExecEnv {
        regs: w.regs.clone(),
        mem: w.mem.clone(),
        max_steps: w.max_steps,
    }
}

/// Paper preset with a scheduler override. The differential ff shadow
/// re-checks every jump, so it is kept on whenever fast-forward is: the
/// grid then also covers the ready-list × fast-forward interaction
/// (DESIGN.md §11 ↔ §10).
fn config_with(scheduler: Scheduler, fast_forward: bool) -> MachineConfig {
    MachineConfig::builder()
        .scheduler(scheduler)
        .fast_forward(fast_forward)
        .ff_check(fast_forward)
        .build()
        .expect("paper preset with scheduler override is valid")
}

/// Every `Scale::Test` workload × every model: the ready-list scheduler
/// versus the seed scan scheduler must be simulation-identical, with
/// fast-forward disabled (pure per-cycle stepping on both sides).
#[test]
fn ready_list_is_stat_identical_across_suite_and_models() {
    compare_schedulers(false);
}

/// The same grid with fast-forward (and its differential shadow check)
/// enabled on both sides: the ready-list `next_event`/progress-token
/// implementations must agree with the scan ones about skip legality.
#[test]
fn ready_list_is_stat_identical_under_fast_forward() {
    compare_schedulers(true);
}

fn compare_schedulers(fast_forward: bool) {
    compare_models(&Model::ALL, fast_forward, |_| {}, "paper preset");
}

/// Runs every `Scale::Test` workload on each of `models` under both
/// schedulers, with `tweak` applied to the configuration, and asserts the
/// two runs are simulation-identical.
fn compare_models(
    models: &[Model],
    fast_forward: bool,
    tweak: impl Fn(&mut MachineConfig),
    what: &str,
) {
    for w in suite(Scale::Test, 42) {
        let env = env_of(&w);
        let compiled = compile(&w.prog, &env, &CompilerConfig::default())
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", w.name));
        for &model in models {
            let run = |scheduler| {
                let mut cfg = config_with(scheduler, fast_forward);
                tweak(&mut cfg);
                Machine::new(model, &compiled, &env, cfg)
                    .run(compiled.profile.dyn_instrs)
                    .unwrap_or_else(|e| {
                        panic!("{}/{model} ({what}): {scheduler:?} run failed: {e}", w.name)
                    })
            };
            let scan = run(Scheduler::Scan);
            let ready = run(Scheduler::ReadyList);

            assert_eq!(
                scan.cycles, ready.cycles,
                "{}/{model} ({what}): cycle count diverged under the ready list (ff={fast_forward})",
                w.name
            );
            assert_eq!(
                scan.mem_checksum, ready.mem_checksum,
                "{}/{model} ({what}): memory diverged under the ready list (ff={fast_forward})",
                w.name
            );
            assert!(
                scan.sim_eq(&ready),
                "{}/{model} ({what}): statistics diverged under the ready list (ff={fast_forward}):\n\
                 scan: {scan:#?}\nready: {ready:#?}",
                w.name
            );
        }
    }
}

/// Non-paper window sizes on the baseline and the decoupled pair: a
/// single-slot window, one that wraps at a non-power-of-two and two that
/// need more than one 64-bit word of ready/consumer bitset. Every core of
/// the machine gets the same `ruu_size`.
#[test]
fn ready_list_is_stat_identical_at_odd_window_sizes() {
    for fast_forward in [false, true] {
        for ruu_size in [1, 7, 65, 130] {
            compare_models(
                &[Model::Superscalar, Model::CpAp],
                fast_forward,
                |cfg| {
                    cfg.superscalar.ruu_size = ruu_size;
                    cfg.cp.ruu_size = ruu_size;
                    cfg.ap.ruu_size = ruu_size;
                },
                &format!("ruu_size={ruu_size}"),
            );
        }
    }
}

/// The paper's high-latency point (Figure 10) keeps the window fuller for
/// longer, exercising deep wakeup chains; equivalence must hold there too.
#[test]
fn ready_list_is_stat_identical_at_high_latency() {
    let w = &suite(Scale::Test, 7)[2]; // pointer: serial chase, stall-heavy
    let env = env_of(w);
    let compiled = compile(&w.prog, &env, &CompilerConfig::default()).unwrap();
    for model in Model::ALL {
        let mut scan_cfg = MachineConfig::paper_with_latency(16, 160);
        scan_cfg.superscalar.scheduler = Scheduler::Scan;
        scan_cfg.cp.scheduler = Scheduler::Scan;
        scan_cfg.ap.scheduler = Scheduler::Scan;
        let ready_cfg = MachineConfig::paper_with_latency(16, 160);
        let scan = Machine::new(model, &compiled, &env, scan_cfg)
            .run(compiled.profile.dyn_instrs)
            .unwrap();
        let ready = Machine::new(model, &compiled, &env, ready_cfg)
            .run(compiled.profile.dyn_instrs)
            .unwrap();
        assert!(
            scan.sim_eq(&ready),
            "pointer/{model} @ high latency: ready list diverged from scan"
        );
    }
}
