//! Micro-kernels: the small scientific loops the paper's Section 4 uses
//! to explain the compiler (Livermore Loop 1 and the discrete
//! convolution), plus two classics (saxpy, sdot) in the same style.
//!
//! These are not part of the evaluation suite; they exist so the compiler
//! walkthroughs and the microbenchmarks have first-class, validated
//! kernels to chew on.

use crate::layout::{REGION_A, REGION_B, REGION_C, RESULT};
use crate::Workload;
use hidisc_isa::asm::assemble;
use hidisc_isa::mem::Memory;
use hidisc_isa::IntReg;

/// Micro-kernel size (elements).
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Vector length.
    pub n: usize,
}

impl Params {
    /// Sizes per scale.
    pub fn at(scale: crate::Scale) -> Params {
        match scale {
            crate::Scale::Test => Params { n: 256 },
            crate::Scale::Paper => Params { n: 8192 },
            crate::Scale::Large => Params { n: 32_768 },
        }
    }
}

fn fill(mem: &mut Memory, base: u64, n: usize, f: impl Fn(usize) -> f64) -> Vec<f64> {
    let v: Vec<f64> = (0..n).map(f).collect();
    for (i, &x) in v.iter().enumerate() {
        mem.write_f64(base + 8 * i as u64, x).unwrap();
    }
    v
}

/// Livermore Loop 1 (hydro fragment):
/// `x[k] = q + y[k] * (r*z[k+10] + t*z[k+11])` — the paper's Figure 5
/// example.
pub fn lll1(p: &Params, seed: u64) -> Workload {
    let n = p.n;
    let mut mem = Memory::new();
    let y = fill(&mut mem, REGION_B, n, |k| {
        ((k as u64 ^ seed) % 9) as f64 * 0.5
    });
    let z = fill(&mut mem, REGION_C, n + 16, |k| {
        ((k as u64 + seed) % 7) as f64 * 0.25
    });
    let (q, r, t) = (1.5f64, 0.25f64, 0.125f64);
    mem.write_f64(0x0040_0000, q).unwrap();
    mem.write_f64(0x0040_0008, r).unwrap();
    mem.write_f64(0x0040_0010, t).unwrap();

    // Reference: x[], plus an fp checksum in the exact kernel order.
    let mut acc = 0.0f64;
    for k in 0..n {
        let x = q + y[k] * (r * z[k + 10] + t * z[k + 11]);
        acc += x;
    }

    let src = r"
            l.d f10, 0x400000(r0)  ; q
            l.d f11, 0x400008(r0)  ; r
            l.d f12, 0x400010(r0)  ; t
            li  r5, 0              ; k
        loop:
            sll r6, r5, 3
            add r7, r3, r6
            l.d f1, 80(r7)         ; z[k+10]
            l.d f2, 88(r7)         ; z[k+11]
            mul.d f3, f11, f1
            mul.d f4, f12, f2
            add.d f3, f3, f4
            add r8, r2, r6
            l.d f5, 0(r8)          ; y[k]
            mul.d f6, f5, f3
            add.d f6, f6, f10
            add r9, r1, r6
            s.d f6, 0(r9)          ; x[k]
            add.d f20, f20, f6     ; checksum
            add r5, r5, 1
            bne r5, r4, loop
            s.d f20, 0(r11)
            halt
        ";
    Workload {
        name: "lll1",
        prog: assemble("lll1", src).unwrap(),
        regs: vec![
            (IntReg::new(1), REGION_A as i64), // x
            (IntReg::new(2), REGION_B as i64), // y
            (IntReg::new(3), REGION_C as i64), // z
            (IntReg::new(4), n as i64),
            (IntReg::new(11), RESULT as i64),
        ],
        mem,
        max_steps: 40 * n as u64 + 10_000,
        expected: Some((RESULT, acc.to_bits() as i64)),
    }
}

/// Discrete convolution inner loop (the paper's Figure 3):
/// `y += x[j] * h[n-j-1]`.
pub fn convolution(p: &Params, seed: u64) -> Workload {
    let n = p.n;
    let mut mem = Memory::new();
    let x = fill(&mut mem, REGION_A, n, |k| {
        ((k as u64 ^ seed) % 11) as f64 * 0.125
    });
    let h = fill(&mut mem, REGION_B, n, |k| {
        ((k as u64 + seed) % 5) as f64 * 0.5
    });

    let mut y = 0.0f64;
    for j in 0..n {
        y += x[j] * h[n - j - 1];
    }

    let src = r"
            li  r4, 0           ; j
            sub r5, r3, 1       ; n-1
        loop:
            sll r6, r4, 3
            add r7, r1, r6
            l.d f1, 0(r7)       ; x[j]
            sub r8, r5, r4
            sll r8, r8, 3
            add r9, r2, r8
            l.d f2, 0(r9)       ; h[n-j-1]
            mul.d f3, f1, f2
            add.d f4, f4, f3
            add r4, r4, 1
            bne r4, r3, loop
            s.d f4, 0(r11)
            halt
        ";
    Workload {
        name: "convolution",
        prog: assemble("convolution", src).unwrap(),
        regs: vec![
            (IntReg::new(1), REGION_A as i64),
            (IntReg::new(2), REGION_B as i64),
            (IntReg::new(3), n as i64),
            (IntReg::new(11), RESULT as i64),
        ],
        mem,
        max_steps: 30 * n as u64 + 10_000,
        expected: Some((RESULT, y.to_bits() as i64)),
    }
}

/// saxpy: `y[k] = a*x[k] + y[k]`.
pub fn saxpy(p: &Params, seed: u64) -> Workload {
    let n = p.n;
    let mut mem = Memory::new();
    let x = fill(&mut mem, REGION_A, n, |k| {
        ((k as u64 ^ seed) % 13) as f64 * 0.25
    });
    let y0 = fill(&mut mem, REGION_B, n, |k| {
        ((k as u64 + seed) % 17) as f64 * 0.5
    });
    let a = 3.5f64;
    mem.write_f64(0x0040_0000, a).unwrap();

    let mut acc = 0.0f64;
    for k in 0..n {
        let y = a * x[k] + y0[k];
        acc += y;
    }

    let src = r"
            l.d f10, 0x400000(r0)  ; a
            li r4, 0
        loop:
            sll r5, r4, 3
            add r6, r1, r5
            l.d f1, 0(r6)          ; x[k]
            add r7, r2, r5
            l.d f2, 0(r7)          ; y[k]
            mul.d f3, f10, f1
            add.d f3, f3, f2
            s.d f3, 0(r7)          ; y[k] updated
            add.d f20, f20, f3
            add r4, r4, 1
            bne r4, r3, loop
            s.d f20, 0(r11)
            halt
        ";
    Workload {
        name: "saxpy",
        prog: assemble("saxpy", src).unwrap(),
        regs: vec![
            (IntReg::new(1), REGION_A as i64),
            (IntReg::new(2), REGION_B as i64),
            (IntReg::new(3), n as i64),
            (IntReg::new(11), RESULT as i64),
        ],
        mem,
        max_steps: 30 * n as u64 + 10_000,
        expected: Some((RESULT, acc.to_bits() as i64)),
    }
}

/// sdot: `s += x[k] * y[k]`.
pub fn sdot(p: &Params, seed: u64) -> Workload {
    let n = p.n;
    let mut mem = Memory::new();
    let x = fill(&mut mem, REGION_A, n, |k| {
        ((k as u64 ^ seed) % 7) as f64 * 0.5
    });
    let y = fill(&mut mem, REGION_B, n, |k| {
        ((k as u64 + seed) % 3) as f64 * 1.25
    });

    let mut s = 0.0f64;
    for k in 0..n {
        s += x[k] * y[k];
    }

    let src = r"
            li r4, 0
        loop:
            sll r5, r4, 3
            add r6, r1, r5
            l.d f1, 0(r6)
            add r7, r2, r5
            l.d f2, 0(r7)
            mul.d f3, f1, f2
            add.d f4, f4, f3
            add r4, r4, 1
            bne r4, r3, loop
            s.d f4, 0(r11)
            halt
        ";
    Workload {
        name: "sdot",
        prog: assemble("sdot", src).unwrap(),
        regs: vec![
            (IntReg::new(1), REGION_A as i64),
            (IntReg::new(2), REGION_B as i64),
            (IntReg::new(3), n as i64),
            (IntReg::new(11), RESULT as i64),
        ],
        mem,
        max_steps: 25 * n as u64 + 10_000,
        expected: Some((RESULT, s.to_bits() as i64)),
    }
}

/// All four micro-kernels.
pub fn micro_suite(scale: crate::Scale, seed: u64) -> Vec<Workload> {
    crate::build_set(crate::Set::Micro, scale, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidisc_isa::interp::Interp;

    #[test]
    fn all_micro_kernels_match_their_references() {
        for w in micro_suite(crate::Scale::Test, 5) {
            let mut i = Interp::new(&w.prog, w.mem.clone());
            for &(r, v) in &w.regs {
                i.set_reg(r, v);
            }
            i.run(w.max_steps)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let (addr, want) = w.expected.unwrap();
            assert_eq!(
                i.mem.read_i64(addr).unwrap(),
                want,
                "{}: checksum mismatch",
                w.name
            );
        }
    }

    #[test]
    fn micro_kernels_have_distinct_names() {
        let names: Vec<&str> = micro_suite(crate::Scale::Test, 1)
            .iter()
            .map(|w| w.name)
            .collect();
        assert_eq!(names, vec!["lll1", "convolution", "saxpy", "sdot"]);
    }
}
