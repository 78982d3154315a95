//! Multi-lane SoA stage kernels: N independent detector sessions advanced
//! in lockstep through one shared [`DetectorEngine`].
//!
//! The streaming detector spends ~99% of its time in the five filter
//! stages, and the pipeline is embarrassingly lane-parallel across
//! sessions (monitored patients, leads, corpus records). A [`LaneBank`]
//! exploits that: it batches N `DetectorTail`s behind
//! structure-of-arrays stage state — one delay-line *row* per ring
//! position holding every lane's sample — so each tick walks the shared
//! compiled taps **once** and applies every tap to a contiguous
//! lane slice. The per-tap dispatch (tap lookup, zero-skip, coefficient
//! clamping) is amortized over all lanes and the inner lane loops are
//! plain clamp/multiply/add over adjacent memory, which the compiler
//! auto-vectorizes.
//!
//! Approximate stages take the same register-blocked loops as exact ones.
//! Once per block of ticks, the stage adder resolves to one
//! [`approx_arith::ClosedForm`] and a FIR program's taps to one
//! representation (native multiply, or exact product plus shared residual);
//! each stage walk is monomorphized for the pair, so no lane loop matches
//! on an adder kind or tap representation per element. The squarer is
//! likewise a native square or an exact square plus its residual, a loop
//! that vectorizes either way.
//!
//! A one-lane bank has no lanes to block across, so each stage has a
//! second walk that runs the same register blocks across *time*: a block
//! of consecutive ticks of the one lane (see `Stage::time_walk`), each FIR
//! tap's product taken as the lane walk takes it. Every
//! single-session path is such a bank: batch detection
//! ([`crate::QrsDetector::detect`]) is one push into one, and the
//! streaming detector ([`crate::StreamingQrsDetector`]) wraps one.
//!
//! The HPF on the exact adder or AMA5 runs neither tap walk. Those adders
//! are separable ([`approx_arith::AdderForm::is_separable`]): a chain of
//! adds is a plain sum of lifted operands ([`approx_arith::ClosedForm::lift`]),
//! and 31 of the HPF's 32 taps share one coefficient. So its outputs come
//! from a sliding window sum of one product per sample, in both walks
//! (`SumWalk`), whenever the overflow bound of `running_sum_spike` holds.
//!
//! # Bit-identity contract
//!
//! Every lane's event stream and final [`DetectionResult`] are **bit
//! identical** to the scalar reference pipeline ([`crate::oracle`]: the
//! five stages one sample at a time) over that lane's samples —
//! for every chunking, bank width, footprint, and stage arithmetic. The
//! kernels guarantee this by construction:
//!
//! * FIR products are taken in tap order and accumulated left-to-right
//!   exactly like the scalar hot loop, so non-associative approximate
//!   adds see the same operand sequence. The running-sum HPF is the one
//!   exception: its adder is separable, so the chain equals its sum, and
//!   its bound proves the chain's overflow count 0. The ring cursor is
//!   shared across lanes — legal because an FIR output depends only on
//!   delay contents *relative* to the cursor, so a freshly zeroed lane
//!   column behaves exactly like a fresh filter (rotation invariance);
//! * the MWI sums its window in **storage order** (the netlist's 29-adder
//!   chain), which is *not* rotation invariant — so MWI write cursors are
//!   per-lane, letting a lane reset mid-run behave like a fresh session;
//! * per-sample operation counts are data-independent and therefore
//!   hoisted to per-lane tick counters, while saturation and overflow
//!   counts are data-dependent and kept in per-lane arrays updated inside
//!   the lane loops with branch-free tests equal to the scalar backend's
//!   (the wrap-compare form of `crate::arith::sum_overflows`), and the
//!   adds go through the same [`approx_arith::ClosedForm`] the scalar
//!   adder evaluates;
//! * everything downstream of the stages — classifier, alignment queue,
//!   event emission — *is* the scalar code: each lane owns the same
//!   `DetectorTail` the scalar reference drives.
//!
//! The contract is enforced against that reference by
//! `tests/streaming_equivalence.rs`, the one-lane sweep in
//! `tests/one_lane_time_walk.rs`, the pinned golden trace and 4-lane
//! fixture, and CI's `ext_lane_speed --check` gate.

use std::cell::Cell;
use std::sync::Arc;

use approx_arith::{
    with_adder_form, AdderForm, ClosedForm, OpCounter, SquareMultiplier, TapMultiplier,
};

use crate::arith::{div_round, ArithCounters, ArithProgram};
use crate::detector::DetectionResult;
use crate::engine::DetectorEngine;
use crate::fir::{shift_round, FirProgram};
use crate::snapshot::{self, Reader, SnapshotError, Writer};
use crate::stages::mwi::WINDOW;
use crate::streaming::{DetectorTail, StreamEvent};

/// One [`StreamEvent`] attributed to the lane that emitted it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneEvent {
    /// The emitting lane (column index in the pushed frames).
    pub lane: usize,
    /// The event — identical to what the scalar reference emits over the
    /// lane's samples.
    pub event: StreamEvent,
}

impl LaneEvent {
    fn at(lane: usize, event: StreamEvent) -> Self {
        Self { lane, event }
    }
}

fn op_counter(muls: u64, adds: u64) -> OpCounter {
    let mut ops = OpCounter::new();
    ops.count_muls(muls);
    ops.count_adds(adds);
    ops
}

/// The widest vector feature set the running CPU offers for the stage
/// kernels.
///
/// rustc compiles the crate for the portable x86-64 baseline (SSE2),
/// which has no 64-bit vector multiply — so the auto-vectorized lane
/// loops run far below the machine's width. The bank therefore compiles
/// every stage walk ([`Walk::run`]) a second and third time under
/// `#[target_feature]` (AVX2, and AVX-512 with the `DQ` 64-bit multiply)
/// and picks the widest supported instance at runtime. The kernels are
/// pure two's-complement integer arithmetic, so every instance is
/// bit-identical by construction — dispatch only changes register width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SimdLevel {
    Baseline,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

#[cfg(target_arch = "x86_64")]
fn simd_level() -> SimdLevel {
    use std::sync::OnceLock;
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            SimdLevel::Avx512
        } else if std::arch::is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else {
            SimdLevel::Baseline
        }
    })
}

#[cfg(not(target_arch = "x86_64"))]
fn simd_level() -> SimdLevel {
    SimdLevel::Baseline
}

/// The vector feature set the lane kernels will dispatch to on this host
/// (`"avx512"`, `"avx2"`, or `"baseline"`). Results are bit-identical
/// across levels — only throughput differs — so benchmarks and gates use
/// this to scale expectations to the machine's vector width.
#[must_use]
pub fn simd_level_name() -> &'static str {
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => "avx512",
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => "avx2",
        SimdLevel::Baseline => "baseline",
    }
}

/// One stage kernel under its resolved arithmetic `A`: the adder's closed
/// form (plus the tap representation for a FIR), or `()` for the
/// adder-free squarer. Each stage has two walks over a block of ticks: the
/// lane walk, tick by tick in register blocks across lanes, and the time
/// walk of a one-lane bank, in register blocks across ticks.
trait Stage<A: Copy> {
    /// Lanes in the bank.
    fn lanes(&self) -> usize;

    /// Advances every lane over a block of ticks, one tick at a time: `x`
    /// is the block's lane rows in, `out` the lane rows of stage outputs.
    /// Each stage writes the tick loop out itself: passing its tick as a
    /// closure to one shared loop ran the 16-lane LPF, derivative and MWI
    /// about 5× slower.
    fn lane_walk(&mut self, arith: A, x: &[i64], out: &mut [i64]);

    /// Advances a one-lane bank over a whole block of ticks: `x` is the
    /// lane's samples in, `out` its stage outputs.
    fn time_walk(&mut self, arith: A, x: &[i64], out: &mut [i64]);
}

/// The axis a register block spans.
trait Axis {
    /// Adds a finished block's per-element counts into the bank's
    /// per-lane totals.
    fn add_counts<const W: usize>(totals: &mut [u64], i0: usize, counts: [u64; W]);
}

/// Register blocks across lanes (the lane walk): element `k` of a block at
/// `i0` is lane `i0 + k` of one tick.
struct Lanes;

impl Axis for Lanes {
    #[inline(always)]
    fn add_counts<const W: usize>(totals: &mut [u64], i0: usize, counts: [u64; W]) {
        // Zip, not indexing: per-element bounds checks force the compiler
        // to scalarize the register block back out element by element.
        for (t, c) in totals[i0..i0 + W].iter_mut().zip(counts) {
            *t += c;
        }
    }
}

/// Register blocks across time (the time walk): element `k` of a block at
/// `i0` is tick `i0 + k` of a one-lane bank's only lane.
struct Ticks;

impl Axis for Ticks {
    #[inline(always)]
    fn add_counts<const W: usize>(totals: &mut [u64], _: usize, counts: [u64; W]) {
        totals[0] += counts.iter().sum::<u64>();
    }
}

/// A stage that computes its outputs in register blocks along axis `X`.
trait Blocked<A: Copy, X: Axis> {
    /// Computes outputs `i0 .. i0 + W` along the axis; `x` is the walk's
    /// input (the tick's lane row, or the block's samples).
    fn block<const W: usize>(&mut self, arith: A, x: &[i64], i0: usize, out: &mut [i64]);

    /// Runs [`Blocked::block`] over `n` outputs in register blocks of 16,
    /// 8, 4, then 1.
    #[inline(always)]
    fn blocks(&mut self, arith: A, x: &[i64], n: usize, out: &mut [i64]) {
        let mut i0 = 0;
        while i0 + 16 <= n {
            self.block::<16>(arith, x, i0, out);
            i0 += 16;
        }
        while i0 + 8 <= n {
            self.block::<8>(arith, x, i0, out);
            i0 += 8;
        }
        while i0 + 4 <= n {
            self.block::<4>(arith, x, i0, out);
            i0 += 4;
        }
        while i0 < n {
            self.block::<1>(arith, x, i0, out);
            i0 += 1;
        }
    }
}

/// One stage over a block of lane rows: `x` in, `out` the stage outputs,
/// both `ticks × lanes` row-major. [`run_at`] compiles [`Walk::run`] once
/// per SIMD level for each stage type, resolved arithmetic and walk, so the
/// LPF, HPF and derivative share their instances.
struct Walk<'a, S, A> {
    stage: &'a mut S,
    arith: A,
    x: &'a [i64],
    out: &'a mut [i64],
}

impl<S: Stage<A>, A: Copy> Walk<'_, S, A> {
    /// The time walk of a one-lane bank when `TIME`, else the lane walk.
    #[inline(always)]
    fn run<const TIME: bool>(self) {
        let Self {
            stage,
            arith,
            x,
            out,
        } = self;
        if TIME {
            stage.time_walk(arith, x, out);
        } else {
            stage.lane_walk(arith, x, out);
        }
    }
}

/// [`Walk::run`] compiled with the AVX-512 feature set (`DQ` supplies the
/// 64-bit vector multiply the baseline lacks).
///
/// # Safety
///
/// The CPU must support `avx512f`, `avx512dq`, and `avx512vl` —
/// guaranteed when [`simd_level`] returns [`SimdLevel::Avx512`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
#[inline(never)]
#[allow(unsafe_code)]
// SAFETY: precondition — the executing CPU supports avx512f, avx512dq
// and avx512vl; otherwise the vector instructions LLVM emits here are
// undefined. The body is the safe `Walk::run` (no raw pointers, no
// intrinsics): the *only* obligation is the CPU-feature check, which
// `run_at` performs via `simd_level()` before every call.
unsafe fn run_avx512<S: Stage<A>, A: Copy, const TIME: bool>(walk: Walk<'_, S, A>) {
    walk.run::<TIME>();
}

/// [`Walk::run`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support `avx2` — guaranteed when [`simd_level`] returns
/// [`SimdLevel::Avx2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
#[allow(unsafe_code)]
// SAFETY: precondition — the executing CPU supports avx2. The body is the
// safe `Walk::run`, so the feature check is the entire obligation;
// `run_at` establishes it via `simd_level()` before every call.
unsafe fn run_avx2<S: Stage<A>, A: Copy, const TIME: bool>(walk: Walk<'_, S, A>) {
    walk.run::<TIME>();
}

/// [`Walk::run`] on the portable baseline, out of line like the vector
/// instances so every walk is compiled once per level.
#[inline(never)]
fn run_baseline<S: Stage<A>, A: Copy, const TIME: bool>(walk: Walk<'_, S, A>) {
    walk.run::<TIME>();
}

/// Runs `walk` compiled for the widest SIMD level this CPU supports.
#[allow(unsafe_code)]
fn run_at<S: Stage<A>, A: Copy, const TIME: bool>(walk: Walk<'_, S, A>) {
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `simd_level()` returns `Avx512` only when
        // `is_x86_feature_detected!` confirmed avx512f+avx512dq+avx512vl
        // on the running CPU — exactly the kernel's precondition.
        SimdLevel::Avx512 => unsafe { run_avx512::<S, A, TIME>(walk) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `simd_level()` returns `Avx2` only when
        // `is_x86_feature_detected!("avx2")` held on the running CPU —
        // exactly the kernel's precondition.
        SimdLevel::Avx2 => unsafe { run_avx2::<S, A, TIME>(walk) },
        SimdLevel::Baseline => run_baseline::<S, A, TIME>(walk),
    }
}

/// Runs `walk` in the walk the bank width picks: one lane leaves nothing
/// to block across but time, wider banks block across lanes. Each walk is
/// its own [`run_at`] instance, so neither carries the other's code.
fn run_walk<S: Stage<A>, A: Copy>(walk: Walk<'_, S, A>) {
    if walk.stage.lanes() == 1 {
        run_at::<S, A, true>(walk);
    } else {
        run_at::<S, A, false>(walk);
    }
}

/// One register block of `W` lanes: accumulators and data-dependent
/// counters held in `W`-sized locals, which live in vector registers across
/// a whole tap or window walk (one memory round-trip per tick, not per
/// tap). Every lane loop has a compile-time trip count and no per-element
/// dispatch, so it vectorizes.
struct Block<const W: usize> {
    acc: [i64; W],
    sat: [u64; W],
    ovf: [u64; W],
    /// Whether a row has seeded `acc` yet.
    seeded: bool,
}

impl<const W: usize> Block<W> {
    #[inline(always)]
    fn new() -> Self {
        Self {
            acc: [0; W],
            sat: [0; W],
            ovf: [0; W],
            seeded: false,
        }
    }

    /// Seeds the accumulators with a first row — no add, no overflow
    /// test, matching the scalar chain's first operand.
    #[inline(always)]
    fn seed(&mut self, row: [i64; W]) {
        self.acc = row;
        self.seeded = true;
    }

    /// Adds one lane row into the seeded accumulators through the closed
    /// form `form`, counting bus overflows.
    #[inline(always)]
    fn accumulate<A: ClosedForm>(&mut self, form: A, row: &[i64; W]) {
        let ext = form.ext();
        for ((acc, ovf), &b) in self.acc.iter_mut().zip(&mut self.ovf).zip(row) {
            let a = *acc;
            // `s` cannot wrap i64 (operands are bounded well below 2^62 by
            // the ≤32-bit multiplier and ≤63-bit bus), so `wrapped != s` ⟺
            // `s` is outside the bus range ⟺
            // [`crate::arith::sum_overflows`]`(a, b, width)`.
            let s = a.wrapping_add(b);
            let wrapped = (s << ext) >> ext;
            *ovf += u64::from(wrapped != s);
            *acc = form.add(a, b);
        }
    }

    /// One FIR tap over a frame: clamps each sample into the multiplier
    /// range (counting saturations) and multiplies it by `mul`. The first
    /// tap's products seed the accumulators; later taps' add through
    /// `form`.
    #[inline(always)]
    fn mac<A: ClosedForm>(
        &mut self,
        form: A,
        limit: i64,
        frame: &[i64; W],
        mul: impl Fn(i64) -> i64,
    ) {
        let mut p = [0i64; W];
        for k in 0..W {
            let a = frame[k];
            // `max`/`min`, not `clamp`: the same value (`limit ≥ 1`) without
            // `clamp`'s bounds assertion on every tap.
            let ca = a.max(-limit).min(limit - 1);
            self.sat[k] += u64::from(ca != a);
            p[k] = mul(ca);
        }
        if self.seeded {
            self.accumulate(form, &p);
        } else {
            self.seed(p);
        }
    }
}

/// Writes a finished FIR register block's accumulators into its `W`
/// outputs, rescaled straight out of the block — each arm computes exactly
/// [`FirProgram::rescale`]. A block no tap seeded (an all-zero program)
/// writes zeros.
#[inline(always)]
fn rescale_block<const W: usize>(program: &FirProgram, block: &Block<W>, out: &mut [i64]) {
    if !block.seeded {
        out.fill(0);
        return;
    }
    match program.gain_shift() {
        Some(0) => out.copy_from_slice(&block.acc),
        Some(shift) => {
            for (o, &a) in out.iter_mut().zip(block.acc.iter()) {
                *o = shift_round(a, shift);
            }
        }
        None => {
            for (o, &a) in out.iter_mut().zip(block.acc.iter()) {
                *o = program.rescale(a);
            }
        }
    }
}

/// Rescales a row of FIR accumulators in place, like [`rescale_block`].
#[inline(always)]
fn rescale_row(program: &FirProgram, out: &mut [i64]) {
    match program.gain_shift() {
        Some(0) => {}
        Some(shift) => {
            for o in out.iter_mut() {
                *o = shift_round(*o, shift);
            }
        }
        None => {
            for o in out.iter_mut() {
                *o = program.rescale(*o);
            }
        }
    }
}

/// One nonzero FIR tap, as a [`TapMul`] resolves it.
#[derive(Clone, Copy)]
struct Tap<'a> {
    /// The tap's index in the program.
    t: usize,
    /// The coefficient, clamped into the multiplier range.
    cb: i64,
    /// The program's compiled tap multipliers (`None` for zero taps).
    mults: &'a [Option<TapMultiplier>],
}

/// How every tap of a FIR program multiplies. The multiplier configuration
/// is per stage, so all of a program's taps share one representation
/// ([`TapRepr`]) and [`LaneFir::run`] runs the walk monomorphized for it:
/// no tap loop branches on the representation.
trait TapMul: Copy {
    /// One tap's product function, resolved before its lane loop (`None`
    /// only if the tap lacks the representation — a zero tap, which every
    /// walk skips, or a table tap of an exact multiplier, which
    /// `LaneFir::new` rules out).
    fn product(tap: Tap<'_>) -> Option<impl Fn(i64) -> i64>;
}

/// An exact multiplier: `ca * cb`, which LLVM vectorizes with the
/// machine's 64-bit multiply.
#[derive(Clone, Copy)]
struct NativeTaps;

impl TapMul for NativeTaps {
    #[inline(always)]
    fn product(tap: Tap<'_>) -> Option<impl Fn(i64) -> i64> {
        Some(move |ca| ca * tap.cb)
    }
}

/// An approximate compiled multiplier: the exact product plus a gather
/// from the tap's shared residual, and the sign fold
/// ([`approx_arith::TapTable`]).
#[derive(Clone, Copy)]
struct TableTaps;

impl TapMul for TableTaps {
    #[inline(always)]
    fn product(tap: Tap<'_>) -> Option<impl Fn(i64) -> i64> {
        let table = tap.mults.get(tap.t)?.as_ref()?.table()?;
        Some(move |ca| table.mul_clamped(ca))
    }
}

/// Which [`TapMul`] a FIR program's taps take, resolved at construction.
#[derive(Debug, Clone, Copy)]
enum TapRepr {
    Native,
    Table,
}

/// SoA FIR kernel: one shared program, N lanes of delay-line state laid
/// out row-major (`delay[pos * lanes + lane]`).
#[derive(Debug, Clone)]
struct LaneFir {
    program: Arc<FirProgram>,
    lanes: usize,
    /// Row-major ring delay line: row `r` holds every lane's sample at
    /// ring position `r`.
    delay: Vec<i64>,
    /// Shared lockstep ring cursor (safe across per-lane resets by
    /// rotation invariance; see the module docs).
    cursor: usize,
    /// Per-lane multiplier-operand saturation counts (data-dependent).
    sats: Vec<u64>,
    /// Per-lane adder overflow counts (data-dependent).
    ovfs: Vec<u64>,
    /// Hoisted per-tick op counts (data-independent, same every sample).
    muls_per_tick: u64,
    adds_per_tick: u64,
    /// Coefficient-side saturations per tick — constant per program.
    coeff_sats_per_tick: u64,
    mul_limit: i64,
    /// The taps clamped into the multiplier range (zero taps stay zero),
    /// so the tap walk loads each coefficient instead of re-clamping it.
    coeffs: Vec<i64>,
    /// The stage adder's closed form and the taps' representation: each
    /// block of ticks matches on them once and runs the walk monomorphized
    /// for the pair.
    adder: AdderForm,
    taps: TapRepr,
    /// The spike tap when the program runs as a running sum (see
    /// [`running_sum_spike`]), else `None`: the tap walk. A `u16` sits in
    /// the struct's tail padding, so a bank bills no more session state.
    running_sum: Option<u16>,
}

/// The tap at which a FIR program can run as a running sum ([`SumWalk`])
/// instead of the tap walk, resolved once per bank. It can when:
///
/// * the stage adder is separable ([`AdderForm::is_separable`]: exact or
///   AMA5), so the chain over products `p₀ … p_L` equals
///   `sext(Σ_{t<L} lift(p_t) + p_L)`, an associative sum;
/// * every tap is nonzero and all but one, the spike, share the last tap's
///   coefficient (the HPF: 31 × −1, and +31 at delay 16), so every tap but
///   the spike takes the same product of its sample;
/// * no step of the chain can overflow the bus: with clamped samples
///   `|x̃| ≤ mul_limit`, `Σ_t (mul_limit·|c_t| + the product's and the
///   adder's error bounds) < 2^(width − 1)` bounds every partial sum and
///   every sum the tap walk tests, so its overflow count is 0 for every
///   input. That holds for every HPF up to the stage's 16 LSBs.
///
/// The LPF, the derivative (it has a zero tap) and any HPF that fails a
/// condition (AMA1–AMA4, or too deep for the bound) keep the tap walk.
fn running_sum_spike(program: &FirProgram, coeffs: &[i64], mul_limit: i64) -> Option<u16> {
    let arith = program.arith();
    let (&last, rest) = coeffs.split_last()?;
    if !arith.adder_form().is_separable() || coeffs.contains(&0) {
        return None;
    }
    let mut odd = (0..rest.len()).filter(|&t| rest[t] != last);
    let spike = odd.next()?;
    if odd.next().is_some() {
        return None;
    }
    let errors = arith.mul_error_bound() + arith.adder().error_bound();
    let bound = coeffs.iter().fold(0i64, |sum, &c| {
        sum.saturating_add(mul_limit * c.abs() + errors)
    });
    if bound >= 1i64 << (arith.adder_width() - 1) {
        return None;
    }
    u16::try_from(spike).ok()
}

impl LaneFir {
    fn new(program: Arc<FirProgram>, lanes: usize) -> Self {
        let rows = program.taps().len();
        let arith = program.arith();
        let mul_limit = 1i64 << (arith.mul_width() - 1);
        let nonzero = program.taps().iter().filter(|&&c| c != 0).count() as u64;
        let coeffs: Vec<i64> = program
            .taps()
            .iter()
            .map(|&c| c.clamp(-mul_limit, mul_limit - 1))
            .collect();
        let coeff_sats_per_tick = program
            .taps()
            .iter()
            .zip(&coeffs)
            .filter(|(c, cb)| c != cb)
            .count() as u64;
        // The wrap-compare overflow test of `Block::accumulate` requires
        // that no operand can wrap i64: products bounded by a ≤32-bit
        // multiplier, sums by a ≤63-bit bus.
        debug_assert!(arith.mul_width() <= 32 && arith.adder_width() <= 63);
        let adder = arith.adder_form();
        // An approximate multiplier compiles a residual for every nonzero
        // tap; an exact one multiplies natively.
        let taps = if arith.mul_is_exact() {
            TapRepr::Native
        } else {
            TapRepr::Table
        };
        Self {
            delay: vec![0; rows * lanes],
            cursor: 0,
            sats: vec![0; lanes],
            ovfs: vec![0; lanes],
            muls_per_tick: nonzero,
            adds_per_tick: nonzero.saturating_sub(1),
            coeff_sats_per_tick,
            mul_limit,
            running_sum: running_sum_spike(&program, &coeffs, mul_limit),
            coeffs,
            adder,
            taps,
            lanes,
            program,
        }
    }

    /// Runs the stage over a block of lane rows (see [`Walk`]), with the
    /// kernel, adder form and tap representation matched once for the
    /// whole block, in the thread's FIR scratch.
    fn run(&mut self, x: &[i64], out: &mut [i64], scratch: &mut FirScratch) {
        let (adder, taps) = (self.adder, self.taps);
        match (self.running_sum, adder) {
            // `running_sum_spike` resolves a spike for these two forms only.
            (Some(spike), AdderForm::Wrap(form)) => self.run_sum(form, spike, x, out, scratch),
            (Some(spike), AdderForm::Ama5(form)) => self.run_sum(form, spike, x, out, scratch),
            _ => {
                let stage = &mut FirWalk {
                    fir: self,
                    hist: &mut scratch.hist,
                };
                with_adder_form!(adder, form => match taps {
                    TapRepr::Native => run_walk(Walk { stage, arith: (form, NativeTaps), x, out }),
                    TapRepr::Table => run_walk(Walk { stage, arith: (form, TableTaps), x, out }),
                });
            }
        }
    }

    /// [`LaneFir::run`] as a running sum under the separable form `form`.
    fn run_sum<A: ClosedForm>(
        &mut self,
        form: A,
        spike: u16,
        x: &[i64],
        out: &mut [i64],
        scratch: &mut FirScratch,
    ) {
        let taps = self.taps;
        let stage = &mut SumWalk {
            fir: self,
            spike: usize::from(spike),
            scratch,
        };
        match taps {
            TapRepr::Native => run_walk(Walk {
                stage,
                arith: (form, NativeTaps),
                x,
                out,
            }),
            TapRepr::Table => run_walk(Walk {
                stage,
                arith: (form, TableTaps),
                x,
                out,
            }),
        }
    }

    fn reset_lane(&mut self, lane: usize) {
        for row in self.delay.chunks_exact_mut(self.lanes) {
            row[lane] = 0;
        }
        self.sats[lane] = 0;
        self.ovfs[lane] = 0;
    }

    /// One lane's delay column, rotation-normalized newest sample first —
    /// the canonical order of the codec, independent of the shared cursor,
    /// so snapshots interchange between banks of any width.
    fn lane_delay_snapshot(&self, lane: usize) -> Vec<i64> {
        let rows = self.program.taps().len();
        (0..rows)
            .map(|r| self.delay[((self.cursor + r) % rows) * self.lanes + lane])
            .collect()
    }

    /// Writes a newest-first ring snapshot into one lane's delay column at
    /// the bank's *current* shared cursor (legal by rotation invariance —
    /// an FIR output depends only on contents relative to the cursor).
    /// The caller must have validated `snap.len()` against the tap count.
    fn load_lane_delay_snapshot(&mut self, lane: usize, snap: &[i64]) {
        let rows = self.program.taps().len();
        debug_assert_eq!(snap.len(), rows);
        for (r, &v) in snap.iter().enumerate() {
            self.delay[((self.cursor + r) % rows) * self.lanes + lane] = v;
        }
    }

    fn heap_bytes(&self) -> usize {
        (self.delay.capacity() + self.coeffs.capacity()) * std::mem::size_of::<i64>()
            + (self.sats.capacity() + self.ovfs.capacity()) * std::mem::size_of::<u64>()
    }

    /// The tap walk's tick: advances every lane one sample, `x` the lane
    /// row in and `out` the lane row of stage outputs.
    #[inline(always)]
    fn tick<A: ClosedForm, M: TapMul>(&mut self, arith: (A, M), x: &[i64], out: &mut [i64]) {
        let lanes = self.lanes;
        let rows = self.program.taps().len();
        self.cursor = if self.cursor == 0 {
            rows - 1
        } else {
            self.cursor - 1
        };
        self.delay[self.cursor * lanes..(self.cursor + 1) * lanes].copy_from_slice(x);
        Blocked::<_, Lanes>::blocks(self, arith, x, lanes, out);
    }

    /// The time walk of a one-lane bank (see [`Stage::time_walk`]): the
    /// tap walk in register blocks of consecutive ticks over the block's
    /// history (see [`LaneFir::open_history`]).
    #[inline(always)]
    fn time_walk<A: ClosedForm, M: TapMul>(
        &mut self,
        arith: (A, M),
        x: &[i64],
        out: &mut [i64],
        hist: &mut Vec<i64>,
    ) {
        if x.is_empty() {
            return;
        }
        self.open_history(x, hist);
        Blocked::<_, Ticks>::blocks(self, arith, hist, x.len(), out);
        self.close_history(hist);
    }

    /// Lays a one-lane ring's `rows − 1` newest samples (oldest first) and
    /// the block `x` out as one linear history in the thread's `hist`, so
    /// the samples every output of the block reads are contiguous. The
    /// history is scratch the LPF, HPF and derivative use in turn: each
    /// block rebuilds it.
    #[inline(always)]
    fn open_history(&mut self, x: &[i64], hist: &mut Vec<i64>) {
        let rows = self.coeffs.len();
        // The walk leaves the ring at cursor 0 and a restore loads it at
        // the current cursor, so a one-lane ring stays at 0; rotating
        // first keeps the history copy free of a divide per sample should
        // it ever sit elsewhere.
        self.delay.rotate_left(self.cursor);
        self.cursor = 0;
        // xanalyze: begin-allow(alloc) — thread-owned scratch: cleared, not
        // dropped, each block, so it reaches its high-water size (the
        // longest ring's `rows − 1` plus `BLOCK_TICKS`) on the thread's
        // first full block and never grows after.
        hist.clear();
        hist.extend(self.delay[..rows - 1].iter().rev());
        hist.extend_from_slice(x);
        // xanalyze: end-allow(alloc)
    }

    /// Rewrites a one-lane ring from the history's `rows` newest samples,
    /// at cursor 0 (legal by rotation invariance).
    #[inline(always)]
    fn close_history(&mut self, hist: &[i64]) {
        let newest = &hist[hist.len() - self.coeffs.len()..];
        for (d, &v) in self.delay.iter_mut().zip(newest.iter().rev()) {
            *d = v;
        }
    }

    /// The running-sum lane walk (see [`SumWalk`]). At the block start it
    /// takes the background product `r = P(x̃)` of every ring sample into a
    /// product ring laid out like the delay ring, and per lane the window
    /// sum `W` of their lifts and the count of clamped samples. Each tick
    /// then swaps the oldest sample for the newest in the rings, the sum
    /// and the count, and computes every lane's output from `W`, the last
    /// tap's and the spike's ring rows and one spike product.
    #[inline(always)]
    fn sum_lane_walk<A: ClosedForm, M: TapMul>(
        &mut self,
        (form, _): (A, M),
        spike: usize,
        x: &[i64],
        out: &mut [i64],
        scratch: &mut FirScratch,
    ) {
        let Self {
            program,
            lanes,
            delay,
            cursor,
            sats,
            mul_limit,
            coeffs,
            ..
        } = self;
        let (lanes, limit, rows) = (*lanes, *mul_limit, coeffs.len());
        let Some((back, spiked)) = sum_products::<M>(program, coeffs, spike, limit) else {
            return;
        };
        let clamp = |v: i64| v.max(-limit).min(limit - 1);
        let FirScratch { prods, sums, .. } = scratch;
        // xanalyze: begin-allow(alloc) — thread-owned scratch: resized in
        // place each block, never dropped, so it reaches its high-water
        // size (the widest bank's ring and lanes) on the thread's first
        // block and never grows after.
        prods.resize(delay.len(), 0);
        sums.clear();
        sums.resize(2 * lanes, 0);
        // xanalyze: end-allow(alloc)
        map_products(delay, prods, &back);
        let (window, clamped) = sums.split_at_mut(lanes);
        for (ring, samples) in prods.chunks_exact(lanes).zip(delay.chunks_exact(lanes)) {
            for (((w, n), &r), &v) in window
                .iter_mut()
                .zip(clamped.iter_mut())
                .zip(ring)
                .zip(samples)
            {
                *w += form.lift(r);
                *n += i64::from(clamp(v) != v);
            }
        }
        let ext = form.ext();
        // Ring row of tap `t` (sample `n − t`) with the cursor at `c`.
        let row = |c: usize, t: usize| (if c + t < rows { c + t } else { c + t - rows }) * lanes;
        for (x, out) in x.chunks_exact(lanes).zip(out.chunks_exact_mut(lanes)) {
            let c = if *cursor == 0 { rows - 1 } else { *cursor - 1 };
            *cursor = c;
            // The newest sample replaces the oldest in the rings, the
            // window sum and the count.
            let new = row(c, 0);
            for ((((d, &r), &v), w), n) in delay[new..new + lanes]
                .iter_mut()
                .zip(&prods[new..new + lanes])
                .zip(x)
                .zip(window.iter_mut())
                .zip(clamped.iter_mut())
            {
                *w -= form.lift(r);
                *n += i64::from(clamp(v) != v) - i64::from(clamp(*d) != *d);
                *d = v;
            }
            map_products(x, &mut prods[new..new + lanes], &back);
            for (w, &r) in window.iter_mut().zip(&prods[new..new + lanes]) {
                *w += form.lift(r);
            }
            // The spike's products, into the output row until the outputs
            // replace them.
            let (last, at) = (row(c, rows - 1), row(c, spike));
            map_products(&delay[at..at + lanes], out, &spiked);
            for (((((o, s), &w), &n), &r_last), &r_spike) in out
                .iter_mut()
                .zip(sats.iter_mut())
                .zip(&*window)
                .zip(&*clamped)
                .zip(&prods[last..last + lanes])
                .zip(&prods[at..at + lanes])
            {
                let acc = w - form.lift(r_last) + r_last + form.lift(*o) - form.lift(r_spike);
                *o = (acc << ext) >> ext;
                *s += n.unsigned_abs();
            }
            rescale_row(program, out);
        }
    }

    /// The running-sum time walk of a one-lane bank (see [`SumWalk`]). Over
    /// the block's history (see [`LaneFir::open_history`]) it takes every
    /// sample's background product, the prefix sums of their lifts in one
    /// serial pass, then every output: output `i` reads history
    /// `i .. i + rows`, whose window sum is a difference of two prefix
    /// sums.
    #[inline(always)]
    fn sum_time_walk<A: ClosedForm, M: TapMul>(
        &mut self,
        (form, _): (A, M),
        spike: usize,
        x: &[i64],
        out: &mut [i64],
        scratch: &mut FirScratch,
    ) {
        let ticks = x.len();
        if ticks == 0 {
            return;
        }
        let FirScratch { hist, prods, sums } = scratch;
        self.open_history(x, hist);
        let Self {
            program,
            sats,
            mul_limit,
            coeffs,
            ..
        } = self;
        let (limit, rows) = (*mul_limit, coeffs.len());
        if let Some((back, spiked)) = sum_products::<M>(program, coeffs, spike, limit) {
            let clamp = |v: i64| v.max(-limit).min(limit - 1);
            // xanalyze: begin-allow(alloc) — thread-owned scratch: resized
            // in place each block, never dropped, so it reaches its
            // high-water size (the history's length plus one) on the
            // thread's first full block and never grows after.
            prods.resize(hist.len(), 0);
            sums.clear();
            sums.push(0);
            // xanalyze: end-allow(alloc)
            map_products(hist, prods, &back);
            let mut sum = 0;
            // xanalyze: begin-allow(alloc) — the same scratch, within the
            // capacity of its high-water block.
            sums.extend(prods.iter().map(|&r| {
                sum += form.lift(r);
                sum
            }));
            // xanalyze: end-allow(alloc)
            // History sample `u` lies in the windows of outputs
            // `u + 1 − rows ..= u`, clipped to the block.
            let clamped: u64 = hist
                .iter()
                .enumerate()
                .map(|(u, &v)| {
                    let outputs = u.min(ticks - 1) + 1 - (u + 1).saturating_sub(rows);
                    u64::from(clamp(v) != v) * outputs as u64
                })
                .sum();
            sats[0] += clamped;
            // Output `i`: taps `0 .. rows − 1` lift history `i + 1 ..
            // i + rows`, the last tap adds history `i` unlifted, and the
            // spike tap reads history `i + rows − 1 − spike`, whose
            // products land in the outputs until the outputs replace them.
            let at = rows - 1 - spike;
            let out = &mut out[..ticks];
            map_products(&hist[at..at + ticks], out, &spiked);
            let ext = form.ext();
            for ((((o, &r_last), &below), &upto), &r_spike) in out
                .iter_mut()
                .zip(&prods[..ticks])
                .zip(&sums[1..])
                .zip(&sums[rows..])
                .zip(&prods[at..])
            {
                let acc = upto - below + r_last + form.lift(*o) - form.lift(r_spike);
                *o = (acc << ext) >> ext;
            }
            rescale_row(program, out);
        }
        self.close_history(hist);
    }
}

/// The running sum's two products of a sample, each clamping it into the
/// multiplier range first: the background taps' (the last tap's
/// coefficient) and the spike tap's. `None` if a tap lacks the
/// representation `M`, which `LaneFir::new` rules out.
#[inline(always)]
fn sum_products<'a, M: TapMul + 'a>(
    program: &'a FirProgram,
    coeffs: &[i64],
    spike: usize,
    limit: i64,
) -> Option<(impl Fn(i64) -> i64 + 'a, impl Fn(i64) -> i64 + 'a)> {
    let mults = program.tap_mults();
    let product = |t: usize| {
        let mul = M::product(Tap {
            t,
            cb: coeffs[t],
            mults,
        })?;
        Some(move |v: i64| mul(v.max(-limit).min(limit - 1)))
    };
    let products = product(coeffs.len() - 1).zip(product(spike));
    debug_assert!(products.is_some(), "a tap lacks its representation");
    products
}

/// Writes `product(v)` for every `v` of `src` into `dst`, in register
/// blocks of 16, 8, 4, then 1. A residual product gathers from a table the
/// compiler cannot prove apart from `dst`, so a loop storing each product
/// straight to `dst` stays scalar; a block's products go to a local array
/// first, as in [`Block::mac`].
#[inline(always)]
fn map_products(src: &[i64], dst: &mut [i64], product: &impl Fn(i64) -> i64) {
    let mut done = map_blocks::<16>(src, dst, product);
    done += map_blocks::<8>(&src[done..], &mut dst[done..], product);
    done += map_blocks::<4>(&src[done..], &mut dst[done..], product);
    map_blocks::<1>(&src[done..], &mut dst[done..], product);
}

/// [`map_products`] over the whole blocks of `W` elements; returns how many
/// elements it wrote.
#[inline(always)]
fn map_blocks<const W: usize>(
    src: &[i64],
    dst: &mut [i64],
    product: &impl Fn(i64) -> i64,
) -> usize {
    let mut done = 0;
    for (src, dst) in src.chunks_exact(W).zip(dst.chunks_exact_mut(W)) {
        let mut block = [0i64; W];
        for (p, &v) in block.iter_mut().zip(src) {
            *p = product(v);
        }
        dst.copy_from_slice(&block);
        done += W;
    }
    done
}

/// A FIR stage on the tap walk as [`run_walk`] drives it: the stage and
/// the thread's history buffer, which only the time walk uses. The walks
/// themselves are `LaneFir` methods that take the two as separate
/// arguments: walked through this struct's two references, the exact
/// one-lane walk ran about 25 % slower.
struct FirWalk<'a> {
    fir: &'a mut LaneFir,
    hist: &'a mut Vec<i64>,
}

impl<A: ClosedForm, M: TapMul> Stage<(A, M)> for FirWalk<'_> {
    fn lanes(&self) -> usize {
        self.fir.lanes
    }

    #[inline(always)]
    fn lane_walk(&mut self, arith: (A, M), x: &[i64], out: &mut [i64]) {
        let lanes = self.fir.lanes;
        for (x, out) in x.chunks_exact(lanes).zip(out.chunks_exact_mut(lanes)) {
            self.fir.tick(arith, x, out);
        }
    }

    #[inline(always)]
    fn time_walk(&mut self, arith: (A, M), x: &[i64], out: &mut [i64]) {
        self.fir.time_walk(arith, x, out, self.hist);
    }
}

/// A FIR stage as a running sum, as [`run_walk`] drives it: the stage, its
/// spike tap ([`running_sum_spike`]) and the thread's FIR scratch. For a
/// separable adder the tap walk's chain over tap products `p_t` is
/// `sext(Σ_{t<L} lift(p_t) + p_L)`, and every tap but the spike `j`
/// multiplies its sample by one coefficient, so with the background
/// product `r_m = P(x̃_m)` of each clamped sample and `W(n)` the sum of
/// `lift(r)` over the window `n − L ..= n`, output `n` is
///
/// ```text
/// sext(W(n) − lift(r_{n−L}) + r_{n−L} + lift(P_j(x̃_{n−j})) − lift(r_{n−j}))
/// ```
///
/// rescaled: two products per output instead of `L + 1` and no adder
/// chain. The saturation count of an output is the number of clamped
/// samples in its window; the overflow count stays 0 (the bound of
/// [`running_sum_spike`]), and op counts stay the hoisted per-tick
/// constants of the netlist. The products and sums are block scratch,
/// rebuilt from the delay ring at each block start, so the bank holds
/// nothing the tap walk does not.
struct SumWalk<'a> {
    fir: &'a mut LaneFir,
    spike: usize,
    scratch: &'a mut FirScratch,
}

impl<A: ClosedForm, M: TapMul> Stage<(A, M)> for SumWalk<'_> {
    fn lanes(&self) -> usize {
        self.fir.lanes
    }

    #[inline(always)]
    fn lane_walk(&mut self, arith: (A, M), x: &[i64], out: &mut [i64]) {
        self.fir
            .sum_lane_walk(arith, self.spike, x, out, self.scratch);
    }

    #[inline(always)]
    fn time_walk(&mut self, arith: (A, M), x: &[i64], out: &mut [i64]) {
        self.fir
            .sum_time_walk(arith, self.spike, x, out, self.scratch);
    }
}

impl<A: ClosedForm, M: TapMul> Blocked<(A, M), Lanes> for LaneFir {
    /// The tap walk for lanes `lane0 .. lane0 + W` — bit-identical, lane
    /// by lane, to the scalar [`crate::oracle::FirFilter::process`]:
    ///
    /// * the row walk wraps from the newest sample exactly like the scalar
    ///   loop's index, skips zero taps, and sums products left to right
    ///   through the stage adder's closed form `form`, the first nonzero
    ///   tap seeding the accumulators;
    /// * the taps multiply through the representation `M` shared by the
    ///   whole program — native multiply or exact product plus shared
    ///   residual — so every lane loop runs one branch-free arm;
    /// * the exact configuration is the ([`NativeTaps`],
    ///   [`approx_arith::adder::Wrap`]) instance: `ca * cb` and a
    ///   sign-extending wrap, which LLVM vectorizes with the machine's
    ///   64-bit multiply.
    #[inline(always)]
    fn block<const W: usize>(
        &mut self,
        (form, _): (A, M),
        _: &[i64],
        lane0: usize,
        out: &mut [i64],
    ) {
        let Self {
            program,
            lanes,
            delay,
            cursor,
            sats,
            ovfs,
            mul_limit,
            coeffs,
            ..
        } = self;
        let (lanes, limit) = (*lanes, *mul_limit);
        let tap_mults = program.tap_mults();
        let rows = coeffs.len();

        let mut block = Block::<W>::new();
        let mut row = *cursor;
        for (t, &cb) in coeffs.iter().enumerate() {
            let base = row * lanes + lane0;
            row += 1;
            if row == rows {
                row = 0;
            }
            if cb == 0 {
                continue;
            }
            // A by-value `[i64; W]` row instead of a fallible `&[i64; W]`
            // cast: `copy_from_slice` of a W-slice into a W-array has no
            // failure path, and the locals stay in vector registers.
            let mut frame = [0i64; W];
            frame.copy_from_slice(&delay[base..base + W]);
            let tap = Tap {
                t,
                cb,
                mults: tap_mults,
            };
            let mul = M::product(tap);
            // `LaneFir::new` picks `M` only if every tap has it; a `None`
            // here would drop a nonzero tap from the sum.
            debug_assert!(mul.is_some(), "tap {t} lacks its representation");
            if let Some(mul) = mul {
                block.mac(form, limit, &frame, mul);
            }
        }
        Lanes::add_counts(sats, lane0, block.sat);
        Lanes::add_counts(ovfs, lane0, block.ovf);
        rescale_block(program, &block, &mut out[lane0..lane0 + W]);
    }
}

impl<A: ClosedForm, M: TapMul> Blocked<(A, M), Ticks> for LaneFir {
    /// The tap walk for ticks `k0 .. k0 + W` of a one-lane bank — the
    /// lane walk's sum over the same operands in the same order, each tap's
    /// product taken the same way: tap `t`'s frame is the slice of the
    /// history `hist` starting `t` samples before the block's first tick.
    #[inline(always)]
    fn block<const W: usize>(
        &mut self,
        (form, _): (A, M),
        hist: &[i64],
        k0: usize,
        out: &mut [i64],
    ) {
        let Self {
            program,
            sats,
            ovfs,
            mul_limit,
            coeffs,
            ..
        } = self;
        let limit = *mul_limit;
        let tap_mults = program.tap_mults();
        let rows = coeffs.len();

        let mut block = Block::<W>::new();
        for (t, &cb) in coeffs.iter().enumerate() {
            if cb == 0 {
                continue;
            }
            let at = rows - 1 + k0 - t;
            let mut frame = [0i64; W];
            frame.copy_from_slice(&hist[at..at + W]);
            let tap = Tap {
                t,
                cb,
                mults: tap_mults,
            };
            let mul = M::product(tap);
            debug_assert!(mul.is_some(), "tap {t} lacks its representation");
            if let Some(mul) = mul {
                block.mac(form, limit, &frame, mul);
            }
        }
        Ticks::add_counts(sats, k0, block.sat);
        Ticks::add_counts(ovfs, k0, block.ovf);
        rescale_block(program, &block, &mut out[k0..k0 + W]);
    }
}

/// SoA squarer kernel: point-wise, one square per lane-sample — native when
/// the multiplier is exact, else the exact square plus a gather from the
/// shared residual ([`approx_arith::SquareTable`]). Both loops vectorize.
#[derive(Debug, Clone)]
struct LaneSqr {
    square: SquareMultiplier,
    sats: Vec<u64>,
    mul_limit: i64,
}

impl LaneSqr {
    fn new(square: SquareMultiplier, lanes: usize) -> Self {
        let mul_limit = 1i64 << (square.width() - 1);
        Self {
            sats: vec![0; lanes],
            mul_limit,
            square,
        }
    }

    /// Runs the stage over a block of lane rows (see [`Walk`]).
    fn run(&mut self, x: &[i64], out: &mut [i64]) {
        run_walk(Walk {
            stage: self,
            arith: (),
            x,
            out,
        });
    }

    fn reset_lane(&mut self, lane: usize) {
        self.sats[lane] = 0;
    }

    fn heap_bytes(&self) -> usize {
        self.sats.capacity() * std::mem::size_of::<u64>()
    }
}

/// One square and its saturation count. Both operands clamp together,
/// counting two saturation events like the scalar backend; `sq` squares the
/// clamped value — natively as `cv * cv` (no i64 overflow: both operands
/// are clamped to the ≤32-bit datapath) or through the residual.
#[inline(always)]
fn square(limit: i64, v: i64, sq: &impl Fn(i64) -> i64) -> (i64, u64) {
    let cv = v.clamp(-limit, limit - 1);
    (sq(cv), 2 * u64::from(cv != v))
}

/// The time walk's flat pointwise loop: every element is lane 0's.
#[inline(always)]
fn square_lane(sats: &mut [u64], limit: i64, x: &[i64], out: &mut [i64], sq: impl Fn(i64) -> i64) {
    let mut total = 0;
    for (o, &v) in out.iter_mut().zip(x) {
        let (p, s) = square(limit, v, &sq);
        *o = p;
        total += s;
    }
    sats[0] += total;
}

/// The lane walk's tick: element `k` is lane `k`'s.
#[inline(always)]
fn square_row(sats: &mut [u64], limit: i64, x: &[i64], out: &mut [i64], sq: impl Fn(i64) -> i64) {
    for ((o, &v), s) in out.iter_mut().zip(x).zip(sats.iter_mut()) {
        let (p, n) = square(limit, v, &sq);
        *o = p;
        *s += n;
    }
}

impl Stage<()> for LaneSqr {
    fn lanes(&self) -> usize {
        self.sats.len()
    }

    #[inline(always)]
    fn lane_walk(&mut self, (): (), x: &[i64], out: &mut [i64]) {
        let Self {
            square,
            sats,
            mul_limit,
        } = self;
        let (lanes, limit) = (sats.len(), *mul_limit);
        let rows = x.chunks_exact(lanes).zip(out.chunks_exact_mut(lanes));
        match square.table() {
            None => {
                for (x, out) in rows {
                    square_row(sats, limit, x, out, |cv| cv * cv);
                }
            }
            Some(table) => {
                for (x, out) in rows {
                    square_row(sats, limit, x, out, |cv| table.square_clamped(cv));
                }
            }
        }
    }

    #[inline(always)]
    fn time_walk(&mut self, (): (), x: &[i64], out: &mut [i64]) {
        let Self {
            square,
            sats,
            mul_limit,
        } = self;
        match square.table() {
            None => square_lane(sats, *mul_limit, x, out, |cv| cv * cv),
            Some(table) => square_lane(sats, *mul_limit, x, out, |cv| table.square_clamped(cv)),
        }
    }
}

/// SoA moving-window-integrator kernel: slot-major window storage with
/// **per-lane** write cursors (the storage-order adder chain is not
/// rotation invariant, so resetting one lane must restart its cursor).
#[derive(Debug, Clone)]
struct LaneMwi {
    lanes: usize,
    /// Slot-major window: `window[slot * lanes + lane]`.
    window: Vec<i64>,
    cursor: Vec<usize>,
    ovfs: Vec<u64>,
    /// The stage adder's closed form (see [`LaneFir`]).
    adder: AdderForm,
}

impl LaneMwi {
    fn new(program: &ArithProgram, lanes: usize) -> Self {
        // Same operand-width precondition as `LaneFir::new`: the squarer
        // feeding this stage is ≤32-bit, the bus ≤63-bit, so the
        // wrap-compare overflow test cannot see an i64 wrap.
        debug_assert!(program.mul_width() <= 32 && program.adder_width() <= 63);
        Self {
            window: vec![0; WINDOW * lanes],
            cursor: vec![0; lanes],
            ovfs: vec![0; lanes],
            adder: program.adder_form(),
            lanes,
        }
    }

    /// Runs the stage over a block of lane rows (see [`Walk`]), with the
    /// adder form matched once for the whole block.
    fn run(&mut self, x: &[i64], out: &mut [i64]) {
        with_adder_form!(self.adder, form => run_walk(Walk { stage: &mut *self, arith: form, x, out }));
    }

    fn reset_lane(&mut self, lane: usize) {
        for row in self.window.chunks_exact_mut(self.lanes) {
            row[lane] = 0;
        }
        self.cursor[lane] = 0;
        self.ovfs[lane] = 0;
    }

    /// One lane's window column in storage (slot) order — the order the
    /// storage-order adder chain sums, so it resumes bit-identically.
    fn lane_window_snapshot(&self, lane: usize) -> Vec<i64> {
        (0..WINDOW)
            .map(|slot| self.window[slot * self.lanes + lane])
            .collect()
    }

    /// Loads a storage-order window column and re-derives the lane's write
    /// cursor from `samples_seen` (the tick loop writes then increments,
    /// so the cursor is always `samples_seen % WINDOW`). The caller must
    /// have validated `snap.len() == WINDOW`.
    fn load_lane_window(&mut self, lane: usize, snap: &[i64], samples_seen: usize) {
        debug_assert_eq!(snap.len(), WINDOW);
        for (slot, &v) in snap.iter().enumerate() {
            self.window[slot * self.lanes + lane] = v;
        }
        self.cursor[lane] = samples_seen % WINDOW;
    }

    fn heap_bytes(&self) -> usize {
        self.window.capacity() * std::mem::size_of::<i64>()
            + self.cursor.capacity() * std::mem::size_of::<usize>()
            + self.ovfs.capacity() * std::mem::size_of::<u64>()
    }
}

impl<A: ClosedForm> Stage<A> for LaneMwi {
    fn lanes(&self) -> usize {
        self.lanes
    }

    #[inline(always)]
    fn lane_walk(&mut self, form: A, x: &[i64], out: &mut [i64]) {
        let lanes = self.lanes;
        for (x, out) in x.chunks_exact(lanes).zip(out.chunks_exact_mut(lanes)) {
            self.tick(form, x, out);
        }
    }

    #[inline(always)]
    fn time_walk(&mut self, form: A, x: &[i64], out: &mut [i64]) {
        Blocked::<_, Ticks>::blocks(self, form, x, x.len(), out);
    }
}

impl LaneMwi {
    /// Advances every lane one sample: writes the lane row `x` into each
    /// lane's window slot, then sums every window.
    #[inline(always)]
    fn tick<A: ClosedForm>(&mut self, form: A, x: &[i64], out: &mut [i64]) {
        let lanes = self.lanes;
        for (lane, (&v, cur)) in x.iter().zip(self.cursor.iter_mut()).enumerate() {
            self.window[*cur * lanes + lane] = v;
            *cur = (*cur + 1) % WINDOW;
        }
        Blocked::<_, Lanes>::blocks(self, form, x, lanes, out);
    }

    /// The storage-order chain over one register block, like the scalar
    /// netlist walk: slot 0's row seeds the accumulators and the other
    /// [`WINDOW`]` − 1` slots' rows add through the closed form `form`.
    /// Then writes the block back: overflow counts into the lane totals
    /// along axis `X`, window means into outputs `i0 .. i0 + W`.
    #[inline(always)]
    fn window_chain<A: ClosedForm, X: Axis, const W: usize>(
        &mut self,
        form: A,
        i0: usize,
        out: &mut [i64],
        mut row: impl FnMut(&mut Self, usize) -> [i64; W],
    ) {
        let mut block = Block::<W>::new();
        block.seed(row(self, 0));
        for slot in 1..WINDOW {
            block.accumulate(form, &row(self, slot));
        }
        X::add_counts(&mut self.ovfs, i0, block.ovf);
        for (o, &a) in out[i0..i0 + W].iter_mut().zip(block.acc.iter()) {
            *o = div_round(a, WINDOW as i64);
        }
    }
}

impl<A: ClosedForm> Blocked<A, Lanes> for LaneMwi {
    /// The chain for lanes `lane0 .. lane0 + W`: each slot's row is the
    /// lanes' stored samples.
    #[inline(always)]
    fn block<const W: usize>(&mut self, form: A, _: &[i64], lane0: usize, out: &mut [i64]) {
        let lanes = self.lanes;
        self.window_chain::<A, Lanes, W>(form, lane0, out, |mwi, slot| {
            let base = slot * lanes + lane0;
            // Same by-value row idiom as `LaneFir::block`: no fallible
            // cast, contents land in vector registers.
            let mut row = [0i64; W];
            row.copy_from_slice(&mwi.window[base..base + W]);
            row
        });
    }
}

impl<A: ClosedForm> Blocked<A, Ticks> for LaneMwi {
    /// The chain for ticks `k0 .. k0 + W` of a one-lane bank. With the
    /// write cursor at `c` before the block, tick `k0 + d` writes slot
    /// `(c + d) mod WINDOW`, so slot `s` feeds output `k` the block sample
    /// `d = (s − c) mod WINDOW` when `d ≤ k`, and its stored sample
    /// otherwise: a blend of two broadcasts. `W ≤ WINDOW` writes each slot
    /// at most once per block, so the slot then takes its last value
    /// straight away and the cursor advances by `W`.
    #[inline(always)]
    fn block<const W: usize>(&mut self, form: A, x: &[i64], k0: usize, out: &mut [i64]) {
        const { assert!(W <= WINDOW) };
        let c = self.cursor[0];
        let mut fresh = [0i64; W];
        fresh.copy_from_slice(&x[k0..k0 + W]);
        self.window_chain::<A, Ticks, W>(form, k0, out, |mwi, slot| {
            let d = (slot + WINDOW - c) % WINDOW;
            let stored = mwi.window[slot];
            let written = if d < W { fresh[d] } else { stored };
            mwi.window[slot] = written;
            let mut row = [0i64; W];
            for (k, r) in row.iter_mut().enumerate() {
                *r = if k >= d { written } else { stored };
            }
            row
        });
        self.cursor[0] = (c + W) % WINDOW;
    }
}

/// N independent streaming detector sessions advanced in lockstep through
/// one shared [`DetectorEngine`] — the fleet-throughput shape of
/// [`crate::StreamingQrsDetector`], which is a one-lane bank.
///
/// Feed interleaved frames (`frames[tick * lanes + lane]`) with
/// [`LaneBank::push`]; harvest a finished lane with
/// [`LaneBank::finish_lane`], which returns its trailing events and
/// [`DetectionResult`] and leaves the lane reset, ready for its next
/// record. Every lane is bit-identical to the scalar reference run over
/// its samples (see the [module docs](self)).
///
/// A bank holds session state only: stage delay lines, the MWI window,
/// counters and tails. The buffers a push works in — the inter-stage
/// matrices and the FIR time walk's history — are the calling thread's
/// block scratch, borrowed for the push and billed once per thread by
/// [`block_scratch_bytes`].
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use pan_tompkins::{DetectorEngine, LaneBank, PipelineConfig, StreamingQrsDetector};
///
/// let mut signal = vec![0i32; 1400];
/// for beat in 0..7 {
///     let at = 150 + beat * 170;
///     signal[at - 1] = 120;
///     signal[at] = 240;
///     signal[at + 1] = 120;
/// }
/// let config = PipelineConfig::exact();
/// let engine = Arc::new(DetectorEngine::new(config));
/// let mut bank = LaneBank::new(Arc::clone(&engine), 2);
/// // Lane 0 carries the signal, lane 1 a flat lead.
/// let frames: Vec<i32> = signal.iter().flat_map(|&x| [x, 0]).collect();
/// let mut peaks = Vec::new();
/// for event in bank.push(&frames) {
///     if event.lane == 0 {
///         peaks.extend(event.event.r_peak());
///     }
/// }
/// let (trailing, result) = bank.finish_lane(0);
/// peaks.extend(trailing.iter().filter_map(|e| e.r_peak()));
/// let (_, solo) = StreamingQrsDetector::detect_chunked(config, &signal, 64);
/// assert_eq!(result, solo);
/// assert_eq!(peaks, solo.r_peaks());
/// ```
#[derive(Debug, Clone)]
pub struct LaneBank {
    engine: Arc<DetectorEngine>,
    lanes: usize,
    /// Per-lane samples since the lane's last reset — the basis for the
    /// hoisted (data-independent) op counts.
    ticks: Vec<u64>,
    lpf: LaneFir,
    hpf: LaneFir,
    der: LaneFir,
    sqr: LaneSqr,
    mwi: LaneMwi,
    tails: Vec<DetectorTail>,
}

/// Ticks the stage kernels advance between tail hand-offs. Large enough to
/// amortise the per-lane tail-call overhead across a block, small enough
/// that the six inter-stage matrices of a 16-lane bank (`6 × BLOCK_TICKS ×
/// 16 × 8` bytes = 48 KiB of the thread's [`BlockScratch`]) stay
/// cache-resident.
const BLOCK_TICKS: usize = 64;

/// The buffers a push works in and leaves dead, one per thread
/// ([`SCRATCH`]): every push on the thread takes it at entry and puts it
/// back at exit, so banks hold only session state and the scratch is sized
/// by the widest bank and longest push the thread runs. Nothing in it
/// carries meaning from one push, bank or stage to the next: each block
/// writes whatever it reads first.
#[derive(Debug, Default)]
struct BlockScratch {
    /// Inter-stage matrices: up to [`BLOCK_TICKS`] row-major lane rows
    /// (`m[t * lanes + lane]`) of the samples in and of each stage's
    /// outputs, so the stage kernels run a whole block before the per-lane
    /// tails consume their columns.
    m_x0: Vec<i64>,
    m_a: Vec<i64>,
    m_b: Vec<i64>,
    m_c: Vec<i64>,
    m_d: Vec<i64>,
    m_e: Vec<i64>,
    /// One lane's settled events, drained into the push's return value.
    events: Vec<StreamEvent>,
    /// The FIR stages' buffers, which the LPF, HPF and derivative use in
    /// turn.
    fir: FirScratch,
}

/// The FIR walks' block scratch. Every block rebuilds what it reads.
#[derive(Debug, Default)]
struct FirScratch {
    /// The time walk's linear history: the ring's `rows − 1` newest
    /// samples, oldest first, then the block.
    hist: Vec<i64>,
    /// The running sum's background products ([`SumWalk`]): the lane
    /// walk's product ring, laid out like the delay ring, or the time
    /// walk's product of every history sample.
    prods: Vec<i64>,
    /// The running sum's sums: the lane walk's per-lane window sums of
    /// lifted products, then per-lane counts of clamped samples; or the
    /// time walk's prefix sums of the lifted products.
    sums: Vec<i64>,
}

impl BlockScratch {
    fn heap_bytes(&self) -> usize {
        (self.m_x0.capacity()
            + self.m_a.capacity()
            + self.m_b.capacity()
            + self.m_c.capacity()
            + self.m_d.capacity()
            + self.m_e.capacity()
            + self.fir.hist.capacity()
            + self.fir.prods.capacity()
            + self.fir.sums.capacity())
            * std::mem::size_of::<i64>()
            + self.events.capacity() * std::mem::size_of::<StreamEvent>()
    }
}

thread_local! {
    /// The calling thread's [`BlockScratch`]. A `Cell`, not a `RefCell`: a
    /// push takes the value out and sets it back, so no borrow can fail.
    static SCRATCH: Cell<BlockScratch> = Cell::new(BlockScratch::default());
}

/// Heap bytes of the calling thread's block scratch: the inter-stage
/// matrices, event buffer and FIR time-walk history that every push on the
/// thread borrows (see [`LaneBank`]). They are billed here, once per
/// thread, and in no session's [`LaneBank::state_bytes`]; 0 on a thread
/// that has pushed nothing.
#[must_use]
pub fn block_scratch_bytes() -> usize {
    SCRATCH
        .try_with(|cell| {
            let scratch = cell.take();
            let bytes = scratch.heap_bytes();
            cell.set(scratch);
            bytes
        })
        .unwrap_or(0)
}

impl LaneBank {
    /// Creates a bank of `lanes` fresh sessions over a shared engine.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    #[must_use]
    pub fn new(engine: Arc<DetectorEngine>, lanes: usize) -> Self {
        assert!(lanes >= 1, "LaneBank needs at least one lane");
        let config = *engine.config();
        Self {
            lpf: LaneFir::new(Arc::clone(engine.lpf_program()), lanes),
            hpf: LaneFir::new(Arc::clone(engine.hpf_program()), lanes),
            der: LaneFir::new(Arc::clone(engine.der_program()), lanes),
            sqr: LaneSqr::new(engine.square().clone(), lanes),
            mwi: LaneMwi::new(engine.mwi_program(), lanes),
            tails: (0..lanes).map(|_| DetectorTail::new(&config)).collect(),
            ticks: vec![0; lanes],
            lanes,
            engine,
        }
    }

    /// Number of lanes in the bank.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The shared engine every lane runs on.
    #[must_use]
    pub fn engine(&self) -> &Arc<DetectorEngine> {
        &self.engine
    }

    /// Samples the given lane has ingested since its last reset.
    #[must_use]
    pub fn samples_seen(&self, lane: usize) -> usize {
        self.tails[lane].samples_seen()
    }

    /// Reserves room for `samples` more samples in every lane's retained
    /// stage signals (see [`DetectorTail::reserve_retained`]).
    pub(crate) fn reserve_retained(&mut self, samples: usize) {
        for tail in &mut self.tails {
            tail.reserve_retained(samples);
        }
    }

    /// Feeds interleaved frames — `frames[t * lanes + lane]` is lane
    /// `lane`'s sample at tick `t` — and returns the events that became
    /// final, attributed to their lanes (grouped by lane, each lane's
    /// subsequence in emission order).
    ///
    /// # Panics
    ///
    /// Panics if `frames.len()` is not a multiple of the lane count.
    pub fn push(&mut self, frames: &[i32]) -> Vec<LaneEvent> {
        self.push_impl(frames, None, LaneEvent::at)
    }

    /// Runs the five stage kernels over the scratch matrices, stage by
    /// stage: each stage reads only its input rows and its own state, so
    /// walking one stage over the whole block before the next is a pure
    /// reordering of the tick-by-tick chain, and each stage matches its
    /// adder form and SIMD level once per block (see [`run_at`]).
    fn stage_block(&mut self, scratch: &mut BlockScratch) {
        let BlockScratch {
            m_x0,
            m_a,
            m_b,
            m_c,
            m_d,
            m_e,
            fir,
            ..
        } = scratch;
        self.lpf.run(m_x0, m_a, fir);
        self.hpf.run(m_a, m_b, fir);
        self.der.run(m_b, m_c, fir);
        self.sqr.run(m_c, m_d);
        self.mwi.run(m_d, m_e);
    }

    /// The push of the bank and of the one-lane solo facade
    /// ([`crate::StreamingQrsDetector::push`]): runs the stage kernels over
    /// `frames` in blocks of up to [`BLOCK_TICKS`] ticks, hands each block
    /// to the lanes' tails, then settles every lane and returns its events,
    /// lane by lane, as `event(lane, event)` builds them. It works in the
    /// thread's [`BlockScratch`], taken at entry and put back at exit (a
    /// thread whose locals are already torn down works in a fresh one).
    pub(crate) fn push_impl<E>(
        &mut self,
        frames: &[i32],
        mut taps: Option<&mut [Vec<i64>]>,
        event: impl Fn(usize, StreamEvent) -> E,
    ) -> Vec<E> {
        let lanes = self.lanes;
        assert_eq!(
            frames.len() % lanes,
            0,
            "frames must be whole ticks: {} samples across {lanes} lanes",
            frames.len()
        );
        let mut scratch = SCRATCH.try_with(Cell::take).unwrap_or_default();
        let config = *self.engine.config();
        let shift = config.input_shift;
        for block in frames.chunks(BLOCK_TICKS * lanes) {
            let ticks = block.len() / lanes;
            let len = ticks * lanes;
            let s = &mut scratch;
            // xanalyze: begin-allow(alloc) — amortized block scratch: the
            // thread's six matrices are cleared or resized in place, never
            // dropped, so they reach their high-water size (`BLOCK_TICKS` ×
            // the widest bank's lanes) on the thread's first full block of
            // that bank and never grow after.
            s.m_x0.clear();
            s.m_x0.extend(block.iter().map(|&v| i64::from(v) << shift));
            s.m_a.resize(len, 0);
            s.m_b.resize(len, 0);
            s.m_c.resize(len, 0);
            s.m_d.resize(len, 0);
            s.m_e.resize(len, 0);
            // xanalyze: end-allow(alloc)
            self.stage_block(s);
            for (lane, tail) in self.tails.iter_mut().enumerate() {
                let tap = taps.as_mut().map(|t| &mut t[lane]);
                tail.ingest_batch(lanes, lane, [&s.m_a, &s.m_b, &s.m_c, &s.m_d, &s.m_e], tap);
            }
            for t in &mut self.ticks {
                *t += ticks as u64;
            }
        }
        let mut events = Vec::new();
        let max_misalignment = config.max_misalignment();
        for (lane, tail) in self.tails.iter_mut().enumerate() {
            tail.settle(false, max_misalignment, &mut scratch.events);
            // xanalyze: begin-allow(alloc) — the returned events: an empty
            // `Vec` owns no heap, so a push allocates here only when it
            // confirms a beat (about one per lane per second of signal).
            events.extend(scratch.events.drain(..).map(|e| event(lane, e)));
            // xanalyze: end-allow(alloc)
        }
        let _ = SCRATCH.try_with(|cell| cell.set(scratch));
        events
    }

    /// Ends one lane's stream: flushes its classifier and alignment queue
    /// (clipped at the record end, like the scalar `finish`), returns its
    /// trailing events and complete [`DetectionResult`], and resets the
    /// lane — column state, counters, tail — so it is immediately ready
    /// for its next record, bit-identical to a fresh session. Other lanes
    /// are untouched.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    #[must_use]
    pub fn finish_lane(&mut self, lane: usize) -> (Vec<StreamEvent>, DetectionResult) {
        assert!(lane < self.lanes, "lane {lane} of {} lanes", self.lanes);
        let config = *self.engine.config();
        let mut events = Vec::new();
        self.tails[lane].finish(config.max_misalignment(), &mut events);
        let counters = self.lane_counters(lane);
        let result = self.tails[lane].take_result(
            counters.map(|c| c.ops),
            counters.map(|c| c.mul_saturations),
            counters.map(|c| c.add_overflows),
            self.engine.total_delay(),
        );
        self.lpf.reset_lane(lane);
        self.hpf.reset_lane(lane);
        self.der.reset_lane(lane);
        self.sqr.reset_lane(lane);
        self.mwi.reset_lane(lane);
        self.ticks[lane] = 0;
        self.tails[lane].reset(&config);
        (events, result)
    }

    /// Serializes one lane's live session into a versioned blob — the one
    /// session codec, which [`crate::StreamingQrsDetector::snapshot`] also
    /// writes (a solo detector is a one-lane bank): a lane snapshot
    /// restores into a solo detector, a solo snapshot into any bank lane,
    /// and lanes migrate between banks of different widths and SIMD levels
    /// — always resuming bit-identically. The lane's hoisted per-tick op
    /// counts are materialized into per-stage counters on the way out.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::LaneOutOfRange`] if `lane` is out of range.
    pub fn snapshot_lane(&self, lane: usize) -> Result<Vec<u8>, SnapshotError> {
        if lane >= self.lanes {
            return Err(SnapshotError::LaneOutOfRange {
                lane,
                lanes: self.lanes,
            });
        }
        if self.tails[lane].is_finished() {
            return Err(SnapshotError::Finished);
        }
        let mut w = Writer::new();
        w.put_seq_i64(&self.lpf.lane_delay_snapshot(lane));
        w.put_seq_i64(&self.hpf.lane_delay_snapshot(lane));
        w.put_seq_i64(&self.der.lane_delay_snapshot(lane));
        w.put_seq_i64(&self.mwi.lane_window_snapshot(lane));
        for c in self.lane_counters(lane) {
            w.put_u64(c.ops.adds());
            w.put_u64(c.ops.muls());
            w.put_u64(c.mul_saturations);
            w.put_u64(c.add_overflows);
        }
        self.tails[lane].encode(&mut w);
        Ok(snapshot::seal(
            self.engine.config().fingerprint(),
            &w.into_body(),
        ))
    }

    /// Rebuilds one lane from a snapshot blob — taken from a solo
    /// [`crate::StreamingQrsDetector`] (a one-lane bank) or any bank's [`LaneBank::snapshot_lane`]
    /// under the same configuration — replacing whatever session the lane
    /// was running. Sibling lanes are untouched (the delay column is
    /// rewritten relative to the shared ring cursor, which is legal by
    /// rotation invariance; the MWI cursor is per-lane).
    ///
    /// Beyond the container checks, the lane form validates what the SoA
    /// kernels hoist: the blob's data-independent op counts must equal the
    /// counts its sample count implies, and the FIR saturation totals must
    /// contain the program's constant per-tick coefficient share.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]; on error the lane keeps its previous state —
    /// corrupt input can never produce a silently-diverging lane.
    pub fn restore_lane(&mut self, lane: usize, blob: &[u8]) -> Result<(), SnapshotError> {
        if lane >= self.lanes {
            return Err(SnapshotError::LaneOutOfRange {
                lane,
                lanes: self.lanes,
            });
        }
        let config = *self.engine.config();
        let body = snapshot::open(blob, config.fingerprint())?;
        let mut r = Reader::new(body);
        let lpf_ring = r.take_seq_i64()?;
        let hpf_ring = r.take_seq_i64()?;
        let der_ring = r.take_seq_i64()?;
        let mwi_window = r.take_seq_i64()?;
        let mut counters = [ArithCounters::default(); 5];
        for c in &mut counters {
            let adds = r.take_u64()?;
            let muls = r.take_u64()?;
            c.ops.count_adds(adds);
            c.ops.count_muls(muls);
            c.mul_saturations = r.take_u64()?;
            c.add_overflows = r.take_u64()?;
        }
        let tail = DetectorTail::decode(&config, &mut r)?;
        r.finish()?;

        // Validate everything before touching the lane: a failed restore
        // must leave the previous session intact.
        if lpf_ring.len() != self.lpf.program.taps().len() {
            return Err(SnapshotError::Corrupt(
                "LPF delay ring has the wrong length",
            ));
        }
        if hpf_ring.len() != self.hpf.program.taps().len() {
            return Err(SnapshotError::Corrupt(
                "HPF delay ring has the wrong length",
            ));
        }
        if der_ring.len() != self.der.program.taps().len() {
            return Err(SnapshotError::Corrupt(
                "derivative delay ring has the wrong length",
            ));
        }
        if mwi_window.len() != WINDOW {
            return Err(SnapshotError::Corrupt("MWI window has the wrong length"));
        }
        let n = tail.samples_seen();
        let t = n as u64;
        if counters.map(|c| c.ops) != self.stage_ops(t) {
            return Err(SnapshotError::Corrupt(
                "stage operation counts do not match the sample count",
            ));
        }
        // The FIR totals fold in a constant coefficient-side share per
        // tick; the data-dependent remainder is what the lane arrays hold.
        let fir_sat = |total: u64, per_tick: u64| {
            total
                .checked_sub(t * per_tick)
                .ok_or(SnapshotError::Corrupt(
                    "FIR saturation count below the coefficient-side floor",
                ))
        };
        let lpf_sats = fir_sat(counters[0].mul_saturations, self.lpf.coeff_sats_per_tick)?;
        let hpf_sats = fir_sat(counters[1].mul_saturations, self.hpf.coeff_sats_per_tick)?;
        let der_sats = fir_sat(counters[2].mul_saturations, self.der.coeff_sats_per_tick)?;
        if counters[4].mul_saturations != 0 {
            return Err(SnapshotError::Corrupt(
                "MWI saturation count must be zero (the stage has no multipliers)",
            ));
        }
        if counters[3].add_overflows != 0 {
            return Err(SnapshotError::Corrupt(
                "squarer overflow count must be zero (the stage has no adders)",
            ));
        }

        self.lpf.load_lane_delay_snapshot(lane, &lpf_ring);
        self.hpf.load_lane_delay_snapshot(lane, &hpf_ring);
        self.der.load_lane_delay_snapshot(lane, &der_ring);
        self.mwi.load_lane_window(lane, &mwi_window, n);
        self.lpf.sats[lane] = lpf_sats;
        self.hpf.sats[lane] = hpf_sats;
        self.der.sats[lane] = der_sats;
        self.sqr.sats[lane] = counters[3].mul_saturations;
        self.lpf.ovfs[lane] = counters[0].add_overflows;
        self.hpf.ovfs[lane] = counters[1].add_overflows;
        self.der.ovfs[lane] = counters[2].add_overflows;
        self.mwi.ovfs[lane] = counters[4].add_overflows;
        self.ticks[lane] = t;
        self.tails[lane] = tail;
        Ok(())
    }

    /// The five stages' operation counts over `t` ticks: data-independent,
    /// so the kernels hoist them to per-tick constants and this
    /// materializes them.
    fn stage_ops(&self, t: u64) -> [OpCounter; 5] {
        [
            op_counter(t * self.lpf.muls_per_tick, t * self.lpf.adds_per_tick),
            op_counter(t * self.hpf.muls_per_tick, t * self.hpf.adds_per_tick),
            op_counter(t * self.der.muls_per_tick, t * self.der.adds_per_tick),
            op_counter(t, 0),
            op_counter(0, t * (WINDOW as u64 - 1)),
        ]
    }

    /// One lane's five stage counters, as its result reports them and its
    /// snapshot carries them: [`LaneBank::stage_ops`] over its ticks, the
    /// FIR saturations with the constant coefficient-side share folded in,
    /// and the overflows.
    fn lane_counters(&self, lane: usize) -> [ArithCounters; 5] {
        let t = self.ticks[lane];
        let ops = self.stage_ops(t);
        let saturations = [
            self.lpf.sats[lane] + t * self.lpf.coeff_sats_per_tick,
            self.hpf.sats[lane] + t * self.hpf.coeff_sats_per_tick,
            self.der.sats[lane] + t * self.der.coeff_sats_per_tick,
            self.sqr.sats[lane],
            0,
        ];
        let add_overflows = [
            self.lpf.ovfs[lane],
            self.hpf.ovfs[lane],
            self.der.ovfs[lane],
            0,
            self.mwi.ovfs[lane],
        ];
        std::array::from_fn(|stage| ArithCounters {
            ops: ops[stage],
            mul_saturations: saturations[stage],
            add_overflows: add_overflows[stage],
        })
    }

    /// Heap bytes of the bank's SoA stage state — the lane-shared kernels,
    /// excluding the tails.
    fn soa_heap_bytes(&self) -> usize {
        self.lpf.heap_bytes()
            + self.hpf.heap_bytes()
            + self.der.heap_bytes()
            + self.sqr.heap_bytes()
            + self.mwi.heap_bytes()
            + self.ticks.capacity() * std::mem::size_of::<u64>()
    }

    /// Total live state of the whole bank in bytes: the struct, the SoA
    /// stage state, and every lane's tail — session state only. The shared
    /// engine is billed separately, once, via
    /// [`DetectorEngine::engine_bytes`], and the block scratch a push
    /// borrows once per thread, via [`block_scratch_bytes`].
    #[must_use]
    pub fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.soa_heap_bytes()
            + self
                .tails
                .iter()
                .map(|t| std::mem::size_of::<DetectorTail>() + t.heap_bytes())
                .sum::<usize>()
    }

    /// One lane's share of the live state: its slice of the SoA stage
    /// state plus its own tail — the marginal cost of one more session on
    /// the shared engine, flat in the record length under
    /// [`crate::Footprint::Bounded`]. Like [`LaneBank::state_bytes`], it
    /// excludes the thread's [`block_scratch_bytes`].
    #[must_use]
    pub fn lane_state_bytes(&self, lane: usize) -> usize {
        self.soa_heap_bytes() / self.lanes
            + std::mem::size_of::<DetectorTail>()
            + self.tails[lane].heap_bytes()
    }

    /// Bytes of the distinct process-wide shared residuals, billed once
    /// however many lanes run. See [`DetectorEngine::shared_table_bytes`].
    #[must_use]
    pub fn shared_table_bytes(&self) -> usize {
        self.engine.shared_table_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Footprint, PipelineConfig, StageKind};
    use crate::oracle;
    use crate::streaming::StreamingQrsDetector;
    use approx_arith::{FullAdderKind, Mult2x2Kind, StageArith};

    fn pulse_train(n: usize, period: usize, first: usize) -> Vec<i32> {
        let mut signal = vec![0i32; n];
        let mut at = first;
        while at + 4 < n {
            signal[at - 2] = -60;
            signal[at - 1] = 140;
            signal[at] = 260;
            signal[at + 1] = 120;
            signal[at + 2] = -80;
            at += period;
        }
        signal
    }

    fn interleave(lanes: &[Vec<i32>]) -> Vec<i32> {
        let n = lanes[0].len();
        assert!(lanes.iter().all(|s| s.len() == n));
        (0..n)
            .flat_map(|t| lanes.iter().map(move |s| s[t]))
            .collect()
    }

    /// Drives `signals` through a bank in `ticks_per_push`-tick pushes and
    /// returns each lane's full event stream and result.
    fn run_bank(
        config: PipelineConfig,
        signals: &[Vec<i32>],
        ticks_per_push: usize,
    ) -> Vec<(Vec<StreamEvent>, DetectionResult)> {
        let lanes = signals.len();
        let engine = Arc::new(DetectorEngine::new(config));
        let mut bank = LaneBank::new(engine, lanes);
        let frames = interleave(signals);
        let mut events: Vec<Vec<StreamEvent>> = vec![Vec::new(); lanes];
        for chunk in frames.chunks(ticks_per_push * lanes) {
            for le in bank.push(chunk) {
                events[le.lane].push(le.event);
            }
        }
        events
            .into_iter()
            .enumerate()
            .map(|(lane, mut evs)| {
                let (trailing, result) = bank.finish_lane(lane);
                evs.extend(trailing);
                (evs, result)
            })
            .collect()
    }

    /// 29 = 16 + 8 + 4 + 1 lanes, so one bank runs every register-block
    /// width. Every fourth lane is a flat lead.
    fn every_block_width(n: usize) -> Vec<Vec<i32>> {
        (0..29)
            .map(|lane| match lane % 4 {
                3 => vec![25 + lane as i32; n],
                _ => pulse_train(n, 160 + 3 * lane, 200 + 10 * lane),
            })
            .collect()
    }

    #[test]
    fn every_lane_matches_its_solo_run_in_both_footprints() {
        let signals = every_block_width(3000);
        for footprint in [Footprint::Retain, Footprint::Bounded] {
            let config = PipelineConfig::least_energy([10, 12, 2, 8, 16]).with_footprint(footprint);
            for lane_results in [
                run_bank(config, &signals, 1),
                run_bank(config, &signals, 64),
                run_bank(config, &signals, 4000),
            ] {
                for (lane, (events, result)) in lane_results.into_iter().enumerate() {
                    let (solo_events, solo_result) =
                        oracle::detect_chunked(config, &signals[lane], 64);
                    assert_eq!(events, solo_events, "{footprint:?} lane {lane} events");
                    assert_eq!(result, solo_result, "{footprint:?} lane {lane} result");
                }
            }
        }
    }

    /// Finishing one lane mid-run starts a fresh session in that lane
    /// without perturbing its neighbours — the MWI per-lane cursor and
    /// the FIR rotation invariance under one shared cursor.
    #[test]
    fn lane_reset_mid_run_behaves_like_fresh_session() {
        let config = PipelineConfig::exact();
        let first = pulse_train(2000, 170, 200);
        let second = pulse_train(2400, 181, 260);
        let long = pulse_train(4400, 160, 230);

        let engine = Arc::new(DetectorEngine::new(config));
        let mut bank = LaneBank::new(engine, 2);
        let mut lane0_first = Vec::new();
        let mut lane0_second = Vec::new();
        let mut lane1 = Vec::new();

        let frames: Vec<i32> = (0..2000).flat_map(|t| [first[t], long[t]]).collect();
        for le in bank.push(&frames) {
            match le.lane {
                0 => lane0_first.push(le.event),
                _ => lane1.push(le.event),
            }
        }
        let (trailing, result_first) = bank.finish_lane(0);
        lane0_first.extend(trailing);
        assert_eq!(bank.samples_seen(0), 0, "lane 0 should restart at zero");
        assert_eq!(bank.samples_seen(1), 2000, "lane 1 must be untouched");

        let frames: Vec<i32> = (0..2400)
            .flat_map(|t| [second[t], long[2000 + t]])
            .collect();
        for le in bank.push(&frames) {
            match le.lane {
                0 => lane0_second.push(le.event),
                _ => lane1.push(le.event),
            }
        }
        let (trailing, result_second) = bank.finish_lane(0);
        lane0_second.extend(trailing);
        let (trailing, result_long) = bank.finish_lane(1);
        lane1.extend(trailing);

        let (e, r) = oracle::detect_chunked(config, &first, 500);
        assert_eq!((lane0_first, result_first), (e, r), "first record");
        let (e, r) = oracle::detect_chunked(config, &second, 500);
        assert_eq!((lane0_second, result_second), (e, r), "reused lane");
        let (e, r) = oracle::detect_chunked(config, &long, 500);
        assert_eq!((lane1, result_long), (e, r), "neighbour lane");
    }

    #[test]
    fn per_lane_state_is_bounded_and_engine_billed_once() {
        let config =
            PipelineConfig::least_energy([10, 12, 2, 8, 16]).with_footprint(Footprint::Bounded);
        let engine = Arc::new(DetectorEngine::new(config));
        let lanes = 8;
        let mut bank = LaneBank::new(Arc::clone(&engine), lanes);
        let signals: Vec<Vec<i32>> = (0..lanes)
            .map(|l| pulse_train(6000, 160 + 7 * l, 200 + 11 * l))
            .collect();
        let frames = interleave(&signals);
        let mut high_water = 0usize;
        for chunk in frames.chunks(lanes * 256) {
            let _ = bank.push(chunk);
            high_water = high_water.max(bank.lane_state_bytes(0));
        }
        // The marginal session cost stays at the scalar bounded budget,
        // with config and residual tables billed once to the engine and
        // the block scratch once to the thread (6 048 B per lane and
        // 49 208 B per bank measured).
        assert!(
            high_water < 8 * 1024,
            "per-lane high water {high_water} bytes"
        );
        assert!(high_water > 1024, "suspiciously small: {high_water}");
        assert!(
            bank.state_bytes() < lanes * 7 * 1024,
            "bank state {} bytes",
            bank.state_bytes()
        );
        assert!(engine.engine_bytes() < 8 * 1024);
        assert_eq!(
            bank.shared_table_bytes(),
            engine.shared_table_bytes(),
            "lane bank must not re-bill the shared tables"
        );
    }

    /// Seven banks take turns on one thread, so every push finds the block
    /// scratch as another bank left it: matrices of another width, the FIR
    /// history of another stage, ring length or configuration (the LPF,
    /// HPF and derivative share it), and the running-sum HPF's products
    /// and sums of another width or walk. The AMA4 banks run their HPF on
    /// the tap walk in between. The push lengths straddle the 16/8/4/1
    /// register blocks and the 64-tick kernel block, so histories of every
    /// length follow each other in every order. Every lane must still
    /// equal the scalar reference over its samples.
    #[test]
    fn scratch_never_leaks_between_banks() {
        const LENGTHS: [usize; 10] = [1, 2, 3, 4, 5, 12, 13, 64, 65, 250];
        enum Pusher {
            Bank(LaneBank),
            Solo(StreamingQrsDetector),
        }
        let n = 2 * LENGTHS.iter().sum::<usize>() + 97;
        // Every fifth session runs hot enough to saturate the multipliers.
        let session = |seed: usize| -> Vec<i32> {
            let gain = if seed % 5 == 1 { 400 } else { 1 };
            pulse_train(n, 150 + 7 * (seed % 11), 180 + 13 * (seed % 7))
                .into_iter()
                .map(|v| v * gain)
                .collect()
        };
        let b9 = PipelineConfig::least_energy([10, 12, 2, 8, 16]);
        let b5 = PipelineConfig::least_energy([4, 4, 2, 4, 8]);
        let ama4 = PipelineConfig::exact().with_stage(
            StageKind::Hpf,
            StageArith::new(12, Mult2x2Kind::V1, FullAdderKind::Ama4),
        );
        let mut seed = 0;
        let mut runs: Vec<_> = [
            (PipelineConfig::exact(), 16),
            (b9, 16),
            (ama4, 5),
            (b5, 3),
            (b9, 1),
            (ama4, 1),
            (b5, 1),
        ]
        .into_iter()
        .map(|(config, lanes)| {
            let engine = Arc::new(DetectorEngine::new(config));
            let pusher = if lanes == 1 {
                Pusher::Solo(StreamingQrsDetector::from_engine(engine))
            } else {
                Pusher::Bank(LaneBank::new(engine, lanes))
            };
            let signals: Vec<Vec<i32>> = (0..lanes)
                .map(|_| {
                    seed += 1;
                    session(seed)
                })
                .collect();
            (config, pusher, signals, vec![Vec::new(); lanes])
        })
        .collect();
        let mut at = vec![0; runs.len()];
        let mut step = 0;
        while at.iter().any(|&t| t < n) {
            for (r, (_, pusher, signals, events)) in runs.iter_mut().enumerate() {
                // Offset per bank, so consecutive pushes differ in length.
                let len = LENGTHS[(step + 3 * r) % LENGTHS.len()].min(n - at[r]);
                let ticks = at[r]..at[r] + len;
                at[r] += len;
                match pusher {
                    Pusher::Solo(det) => events[0].extend(det.push(&signals[0][ticks])),
                    Pusher::Bank(bank) => {
                        let frames: Vec<i32> = ticks
                            .flat_map(|t| signals.iter().map(move |s| s[t]))
                            .collect();
                        for le in bank.push(&frames) {
                            events[le.lane].push(le.event);
                        }
                    }
                }
            }
            step += 1;
        }
        for (r, (config, pusher, signals, mut events)) in runs.into_iter().enumerate() {
            let results: Vec<DetectionResult> = match pusher {
                Pusher::Solo(det) => {
                    let (trailing, result) = det.finish();
                    events[0].extend(trailing);
                    vec![result]
                }
                Pusher::Bank(mut bank) => (0..signals.len())
                    .map(|lane| {
                        let (trailing, result) = bank.finish_lane(lane);
                        events[lane].extend(trailing);
                        result
                    })
                    .collect(),
            };
            for (lane, (signal, result)) in signals.iter().zip(results).enumerate() {
                let (solo_events, solo_result) = oracle::detect_chunked(config, signal, 64);
                assert_eq!(events[lane], solo_events, "bank {r} lane {lane} events");
                assert_eq!(result, solo_result, "bank {r} lane {lane} result");
            }
        }
    }

    /// Which FIR stages of `config` run as a running sum, and around which
    /// tap.
    fn running_sums(config: PipelineConfig) -> [Option<u16>; 3] {
        let bank = LaneBank::new(Arc::new(DetectorEngine::new(config)), 1);
        [
            bank.lpf.running_sum,
            bank.hpf.running_sum,
            bank.der.running_sum,
        ]
    }

    /// The running sum's conditions as `LaneFir::new` resolves them. The
    /// HPF on the exact adder or AMA5 runs as a running sum around its
    /// `+31` tap at every depth up to the stage's 16 LSBs, where the
    /// overflow bound still holds (at k = 16, 32 taps of product error
    /// 2^24 and adder error 2^17 next to 62 × 2^15 of products sum to
    /// about 2^29); at k = 20 (product error 2^28) it fails. The LPF (11
    /// coefficients) and the derivative (a zero tap) never qualify, nor
    /// does any depth of AMA4, which is not separable.
    #[test]
    fn running_sum_resolves_for_the_hpf_up_to_its_lsb_bound() {
        let hpf = |arith| PipelineConfig::exact().with_stage(StageKind::Hpf, arith);
        assert_eq!(
            running_sums(PipelineConfig::exact()),
            [None, Some(16), None]
        );
        for k in 1..=StageKind::Hpf.max_approx_lsbs() {
            assert_eq!(
                running_sums(PipelineConfig::least_energy([k; 5])),
                [None, Some(16), None],
                "AMA5 k = {k}"
            );
            // Accurate cells with an approximate multiplier: the exact
            // adder, under the multiplier's error bound.
            let exact_adder = StageArith::new(k, Mult2x2Kind::V1, FullAdderKind::Accurate);
            assert_eq!(
                running_sums(hpf(exact_adder))[1],
                Some(16),
                "exact adder k = {k}"
            );
            let ama4 = StageArith::new(k, Mult2x2Kind::V1, FullAdderKind::Ama4);
            assert_eq!(running_sums(hpf(ama4))[1], None, "AMA4 k = {k}");
        }
        assert_eq!(running_sums(hpf(StageArith::least_energy(20)))[1], None);
        assert_eq!(
            running_sums(hpf(StageArith::new(
                20,
                Mult2x2Kind::V1,
                FullAdderKind::Accurate
            )))[1],
            None
        );
    }

    /// The running sum's lifts where they change values. An AMA5 stage's
    /// own multiplier adds through AMA5 cells, which leave every product's
    /// low `k` bits 0, so `lift(p) = p` on every input a stage triple can
    /// build. Here the HPF pairs AMA5 adders with an exact multiplier and
    /// with V1 over accurate cells, whose products keep those bits. Both
    /// walks, at 1, 5 and 16 lanes over blocks that start at every ring
    /// phase, must equal the scalar filter output by output, with its
    /// saturation and overflow counts, on samples that also clamp.
    #[test]
    fn running_sum_lifts_products_whose_low_bits_are_set() {
        use crate::arith;
        use crate::stages::hpf::{GAIN, TAPS};
        const BLOCKS: [usize; 4] = [1, 7, 63, 64];
        // Spans ±35 000, past the multiplier's ±2^15 operand range.
        let sample =
            |t: usize, lane: usize| ((t * 7_919 + lane * 104_729) % 70_001) as i64 - 35_000;
        for k in [1, 4, 12, 16] {
            for multiplier in [
                StageArith::exact(),
                StageArith::new(k, Mult2x2Kind::V1, FullAdderKind::Accurate),
            ] {
                let arith = arith::tests::with_blocks(StageArith::least_energy(k), multiplier);
                let program = Arc::new(FirProgram::with_arith(&TAPS, GAIN, arith));
                let background = program.tap_mults()[TAPS.len() - 1]
                    .as_ref()
                    .expect("a nonzero tap");
                let lifts_move = (-32_768..32_768).any(|v| {
                    let p = background.mul_clamped(v);
                    with_adder_form!(program.arith().adder_form(), f => f.lift(p) != p)
                });
                assert!(lifts_move, "k = {k}: every lift is the identity");
                for lanes in [1, 5, 16] {
                    let mut fir = LaneFir::new(Arc::clone(&program), lanes);
                    assert_eq!(fir.running_sum, Some(16), "k = {k}");
                    let mut scalar: Vec<_> = (0..lanes)
                        .map(|_| oracle::FirFilter::from_program(Arc::clone(&program)))
                        .collect();
                    let mut scratch = FirScratch::default();
                    let mut t0 = 0;
                    for &len in BLOCKS.iter().cycle().take(24) {
                        let x: Vec<i64> = (0..len * lanes)
                            .map(|i| sample(t0 + i / lanes, i % lanes))
                            .collect();
                        let mut out = vec![0; x.len()];
                        fir.run(&x, &mut out, &mut scratch);
                        for (i, (&v, &o)) in x.iter().zip(&out).enumerate() {
                            let (t, lane) = (t0 + i / lanes, i % lanes);
                            let want = scalar[lane].process(v);
                            assert_eq!(o, want, "k = {k}, {lanes} lanes, lane {lane}, tick {t}");
                        }
                        t0 += len;
                    }
                    for (lane, filter) in scalar.iter().enumerate() {
                        let counters = filter.counters();
                        let sats = fir.sats[lane] + t0 as u64 * fir.coeff_sats_per_tick;
                        assert_eq!(sats, counters.mul_saturations, "k = {k}, lane {lane}");
                        assert_eq!(
                            fir.ovfs[lane], counters.add_overflows,
                            "k = {k}, lane {lane}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "whole ticks")]
    fn ragged_frames_are_rejected() {
        let engine = Arc::new(DetectorEngine::new(PipelineConfig::exact()));
        let mut bank = LaneBank::new(engine, 4);
        let _ = bank.push(&[1, 2, 3]);
    }

    /// The tentpole migration contract: a lane snapshot restores into a
    /// solo session, and a solo snapshot into a lane of a *different-width*
    /// bank whose shared ring cursor is mid-rotation — both resuming
    /// bit-identically with the uninterrupted solo run.
    #[test]
    fn lane_and_solo_snapshots_interchange_bit_identically() {
        for config in [
            PipelineConfig::exact(),
            PipelineConfig::least_energy([10, 12, 2, 8, 16]).with_footprint(Footprint::Bounded),
        ] {
            let signal = pulse_train(3000, 170, 200);
            let sibling = pulse_train(3000, 160, 230);
            let (ref_events, ref_result) = oracle::detect_chunked(config, &signal, 64);

            // Lane → solo at sample 1100.
            let engine = Arc::new(DetectorEngine::new(config));
            let mut bank = LaneBank::new(Arc::clone(&engine), 2);
            let mut events = Vec::new();
            let frames: Vec<i32> = (0..1100).flat_map(|t| [signal[t], sibling[t]]).collect();
            for le in bank.push(&frames) {
                if le.lane == 0 {
                    events.push(le.event);
                }
            }
            let blob = bank.snapshot_lane(0).expect("lane snapshot");
            let mut solo =
                StreamingQrsDetector::restore(Arc::clone(&engine), &blob).expect("solo restore");
            events.extend(solo.push(&signal[1100..]));
            let (trailing, result) = solo.finish();
            events.extend(trailing);
            assert_eq!(events, ref_events, "lane→solo events");
            assert_eq!(result, ref_result, "lane→solo result");

            // Solo → widest lane of a 3-lane bank at sample 700, with the
            // destination bank pre-warmed 500 ticks so the shared FIR
            // cursor sits mid-rotation when the session lands.
            let mut solo = StreamingQrsDetector::from_engine(Arc::clone(&engine));
            let mut events = solo.push(&signal[..700]);
            let blob = solo.snapshot().expect("solo snapshot");
            let mut bank = LaneBank::new(Arc::clone(&engine), 3);
            let warm: Vec<i32> = (0..500).flat_map(|t| [0, sibling[t], 0]).collect();
            let _ = bank.push(&warm);
            bank.restore_lane(2, &blob).expect("lane restore");
            assert_eq!(bank.samples_seen(2), 700, "restored lane sample count");
            let frames: Vec<i32> = (700..3000)
                .flat_map(|t| [0, sibling[t - 700], signal[t]])
                .collect();
            for le in bank.push(&frames) {
                if le.lane == 2 {
                    events.push(le.event);
                }
            }
            let (trailing, result) = bank.finish_lane(2);
            events.extend(trailing);
            assert_eq!(events, ref_events, "solo→lane events");
            assert_eq!(result, ref_result, "solo→lane result");
        }
    }

    /// Satellite 1: a finished lane re-seeds cleanly with a fresh *or* a
    /// restored session — bit-identical to the solo runs — while its
    /// sibling lane's stream is untouched, under an approximate bounded
    /// configuration.
    #[test]
    fn finished_lane_reseeds_fresh_or_restored_without_disturbing_siblings() {
        let config =
            PipelineConfig::least_energy([10, 12, 2, 8, 16]).with_footprint(Footprint::Bounded);
        let first = pulse_train(1600, 170, 200);
        let second = pulse_train(2000, 181, 260);
        let long = pulse_train(3200, 160, 230);
        let engine = Arc::new(DetectorEngine::new(config));

        // A donor solo session snapshotted 400 samples into `second`.
        let mut donor = StreamingQrsDetector::from_engine(Arc::clone(&engine));
        let mut lane0_second = donor.push(&second[..400]);
        let donor_blob = donor.snapshot().expect("donor snapshot");

        let mut bank = LaneBank::new(Arc::clone(&engine), 2);
        let mut lane0_first = Vec::new();
        let mut lane1 = Vec::new();
        let frames: Vec<i32> = (0..1600).flat_map(|t| [first[t], long[t]]).collect();
        for le in bank.push(&frames) {
            match le.lane {
                0 => lane0_first.push(le.event),
                _ => lane1.push(le.event),
            }
        }
        let (trailing, result_first) = bank.finish_lane(0);
        lane0_first.extend(trailing);

        // Re-seed the harvested lane with the donor's mid-record state.
        bank.restore_lane(0, &donor_blob).expect("re-seed restore");
        let frames: Vec<i32> = (0..2000 - 400)
            .flat_map(|t| [second[400 + t], long[1600 + t]])
            .collect();
        for le in bank.push(&frames) {
            match le.lane {
                0 => lane0_second.push(le.event),
                _ => lane1.push(le.event),
            }
        }
        let (trailing, result_second) = bank.finish_lane(0);
        lane0_second.extend(trailing);
        let (trailing, result_long) = bank.finish_lane(1);
        lane1.extend(trailing);

        let (e, r) = oracle::detect_chunked(config, &first, 64);
        assert_eq!((lane0_first, result_first), (e, r), "first record");
        let (e, r) = oracle::detect_chunked(config, &second, 64);
        assert_eq!((lane0_second, result_second), (e, r), "restored re-seed");
        let (e, r) = oracle::detect_chunked(config, &long, 64);
        assert_eq!((lane1, result_long), (e, r), "sibling lane");
    }

    /// A failed restore — wrong lane, wrong config, tampered body — leaves
    /// the lane's previous session fully intact.
    #[test]
    fn failed_lane_restore_leaves_previous_session_intact() {
        let config = PipelineConfig::exact();
        let signal = pulse_train(2400, 170, 200);
        let engine = Arc::new(DetectorEngine::new(config));
        let mut bank = LaneBank::new(Arc::clone(&engine), 2);
        let mut events = Vec::new();
        let frames: Vec<i32> = (0..900).flat_map(|t| [signal[t], 0]).collect();
        for le in bank.push(&frames) {
            if le.lane == 0 {
                events.push(le.event);
            }
        }
        let blob = bank.snapshot_lane(0).expect("snapshot");

        assert!(matches!(
            bank.snapshot_lane(7),
            Err(SnapshotError::LaneOutOfRange { lane: 7, lanes: 2 })
        ));
        assert!(matches!(
            bank.restore_lane(7, &blob),
            Err(SnapshotError::LaneOutOfRange { lane: 7, lanes: 2 })
        ));

        // Wrong configuration: fingerprint mismatch.
        let other = PipelineConfig::least_energy([4, 4, 2, 4, 8]);
        let mut other_bank = LaneBank::new(Arc::new(DetectorEngine::new(other)), 1);
        assert!(matches!(
            other_bank.restore_lane(0, &blob),
            Err(SnapshotError::ConfigMismatch { .. })
        ));

        // Tampered body: flip one byte past the header.
        let mut bad = blob.clone();
        let at = crate::snapshot::HEADER_BYTES + 40;
        bad[at] ^= 0x55;
        assert!(matches!(
            bank.restore_lane(0, &bad),
            Err(SnapshotError::ChecksumMismatch)
        ));

        // The lane keeps streaming exactly as if nothing happened.
        let frames: Vec<i32> = (900..2400).flat_map(|t| [signal[t], 0]).collect();
        for le in bank.push(&frames) {
            if le.lane == 0 {
                events.push(le.event);
            }
        }
        let (trailing, result) = bank.finish_lane(0);
        events.extend(trailing);
        let (ref_events, ref_result) = oracle::detect_chunked(config, &signal, 64);
        assert_eq!(events, ref_events, "events after failed restores");
        assert_eq!(result, ref_result, "result after failed restores");
    }

    /// A lane whose tail was flushed without the reset `finish_lane`
    /// performs has no live session left: snapshots refuse it, typed.
    #[test]
    fn finished_tail_refuses_to_snapshot() {
        let config = PipelineConfig::exact();
        let mut bank = LaneBank::new(Arc::new(DetectorEngine::new(config)), 2);
        let _ = bank.push(&interleave(&[pulse_train(900, 170, 200), vec![0; 900]]));
        let mut events = Vec::new();
        bank.tails[1].finish(config.max_misalignment(), &mut events);
        assert!(matches!(
            bank.snapshot_lane(1),
            Err(SnapshotError::Finished)
        ));
        assert!(bank.snapshot_lane(0).is_ok(), "the sibling lane is live");
    }
}
