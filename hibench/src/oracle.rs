//! Correctness oracles that do not share code with the timing model, and
//! the digest of simulated statistics.

use hidisc::{fnv1a, MachineStats, FNV_OFFSET};
use hidisc_isa::interp::Interp;
use hidisc_workloads::Workload;

/// Runs the sequential program on the functional interpreter and checks
/// the generator's expected result word. Returns the final memory
/// checksum every timing model must reproduce.
pub fn sequential_checksum(w: &Workload) -> Result<u64, String> {
    let mut i = Interp::new(&w.prog, w.mem.clone());
    for &(r, v) in &w.regs {
        i.set_reg(r, v);
    }
    i.run(w.max_steps)
        .map_err(|e| format!("{}: interpreter failed: {e}", w.name))?;
    if let Some((addr, want)) = w.expected {
        let got = i
            .mem
            .read_i64(addr)
            .map_err(|e| format!("{}: result word unreadable: {e}", w.name))?;
        if got != want {
            return Err(format!(
                "{}: interpreter result {got} differs from the generator's {want}",
                w.name
            ));
        }
    }
    Ok(i.mem.checksum())
}

/// FNV-1a of a string: the served-versus-direct comparison key.
pub fn fnv(s: &str) -> u64 {
    fnv1a(FNV_OFFSET, s.as_bytes())
}

/// Digest of the simulated statistics of `runs`, in order: FNV-1a over
/// each run's `to_json`, which holds exactly the fields `sim_eq`
/// compares (host-side timings excluded).
pub fn digest<'a>(runs: impl IntoIterator<Item = &'a MachineStats>) -> u64 {
    runs.into_iter()
        .fold(FNV_OFFSET, |h, st| fnv1a(h, st.to_json().as_bytes()))
}
