//! Transient checkpoint/restart.
//!
//! A checkpoint is a complete, versioned snapshot of the transient
//! stepper's state — solution vector, step size, integrator history,
//! device companion-model histories, PTM phase state and fired events,
//! recorder contents, and cumulative [`TranStats`] — serialized to a
//! compact binary file. Restoring it and continuing produces a waveform
//! **bitwise identical** to an uninterrupted run: every `f64` round-trips
//! through its exact bit pattern, and the resumed loop re-enters with
//! precisely the state the interrupted loop would have had.
//!
//! # File format (`version 1`)
//!
//! Little-endian throughout; every `f64` is stored as `to_bits()`:
//!
//! ```text
//! magic      b"SFCK"
//! version    u32
//! fingerprint u64   FNV-1a over the circuit shape + tstop + method
//! t, dt      f64    loop time and next step size
//! force_be   u8
//! x          [u64 len][f64 ...]
//! hist       [u64 count]{ t f64, [u64 len][f64 ...] }   (LTE predictor)
//! stats      5 × u64, then SolverStats as 10 × u64
//! recorder   times, node_data, branch_data, ptm_resistance (nested vecs)
//! devices    [u64 count]{ u8 tag, payload }
//! ```
//!
//! The fingerprint refuses resuming a snapshot onto a different circuit,
//! stop time, or integration method: resuming such a run could only
//! produce silently wrong waveforms. Writes go to a sibling `.tmp` file
//! and are atomically renamed, so a crash mid-write never corrupts an
//! existing good checkpoint.
//!
//! See `docs/RESILIENCE.md` for the operational story.

use std::path::{Path, PathBuf};

use crate::devices::{CompiledCircuit, SimDevice};
use crate::matrix::SolverStats;
use crate::result::TranStats;
use crate::{Result, SimError};
use sfet_devices::ptm::{PtmPhase, PtmSnapshot, TransitionEvent};
use sfet_numeric::integrate::{CapHistory, IndHistory, Method};

/// Checkpoint format version; bumped on any layout change.
/// Version 2 widened the serialised [`SolverStats`] with the GMRES
/// counters (`gmres_iterations`, `gmres_restarts`, `gmres_fallbacks`).
pub const CHECKPOINT_VERSION: u32 = 2;

const MAGIC: &[u8; 4] = b"SFCK";

/// Checkpointing controls for [`crate::transient_resumable`].
///
/// The default policy disables both writing and resuming, making
/// `transient_resumable` behave exactly like [`crate::transient`].
///
/// # Example
///
/// ```no_run
/// use sfet_sim::CheckpointPolicy;
///
/// // Write a snapshot every 500 accepted steps; on restart, pick up from
/// // the same file if it exists.
/// let policy = CheckpointPolicy::write_to("run.ckpt", 500).resume_if_exists("run.ckpt");
/// # let _ = policy;
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckpointPolicy {
    /// Where to write snapshots; `None` disables checkpointing.
    pub checkpoint_to: Option<PathBuf>,
    /// Write a snapshot every this many *accepted* steps (0 disables).
    pub checkpoint_every: usize,
    /// Snapshot to restore before stepping; `None` starts from `t = 0`.
    pub resume_from: Option<PathBuf>,
}

impl CheckpointPolicy {
    /// A policy that neither writes nor resumes (identical to `Default`).
    pub fn disabled() -> Self {
        CheckpointPolicy::default()
    }

    /// Writes a snapshot to `path` every `every` accepted steps.
    pub fn write_to(path: impl Into<PathBuf>, every: usize) -> Self {
        CheckpointPolicy {
            checkpoint_to: Some(path.into()),
            checkpoint_every: every.max(1),
            resume_from: None,
        }
    }

    /// Builder-style resume source: the run starts from this snapshot.
    pub fn with_resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume_from = Some(path.into());
        self
    }

    /// Builder-style *conditional* resume: restore from `path` only when
    /// the file exists. This is the kill-and-restart idiom — the same
    /// command line works for the first launch and every relaunch.
    pub fn resume_if_exists(mut self, path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        if path.exists() {
            self.resume_from = Some(path);
        }
        self
    }

    /// `true` when this policy writes or resumes anything.
    pub fn is_active(&self) -> bool {
        self.checkpoint_to.is_some() || self.resume_from.is_some()
    }
}

/// Per-device dynamic state captured in a snapshot, in device order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum DeviceSnap {
    /// Resistors, sources: no dynamic state.
    Stateless,
    Capacitor(CapHistory),
    Inductor(IndHistory),
    Mosfet(CapHistory, CapHistory, CapHistory),
    Ptm {
        snap: PtmSnapshot,
        r_step: f64,
        events: Vec<TransitionEvent>,
    },
}

/// Full stepper state at a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TranSnapshot {
    pub t: f64,
    pub dt: f64,
    pub force_be: bool,
    pub x: Vec<f64>,
    /// LTE predictor history (up to two previous accepted points).
    pub hist: Vec<(f64, Vec<f64>)>,
    /// Cumulative stats including solver counters accumulated so far.
    pub stats: TranStats,
    pub times: Vec<f64>,
    pub node_data: Vec<Vec<f64>>,
    pub branch_data: Vec<Vec<f64>>,
    pub ptm_resistance: Vec<Vec<f64>>,
    pub devices: Vec<DeviceSnap>,
}

/// FNV-1a fingerprint of a (circuit, stop time, integration method)
/// triple — the SFCK identity under which checkpoints refuse foreign
/// snapshots and the serving layer (`sfet-serve`) deduplicates identical
/// simulation jobs.
///
/// The fingerprint covers the compiled circuit *shape* (unknown count,
/// node count, and the per-device kind sequence), `tstop`'s exact bit
/// pattern, and the method tag. Two circuits with the same shape but
/// different element values share a fingerprint; consumers that need
/// value-level identity (the result store does) must combine it with a
/// canonicalisation of the inputs that produced the circuit.
///
/// # Example
///
/// ```
/// use sfet_circuit::{Circuit, SourceWaveform};
/// use sfet_numeric::integrate::Method;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ckt = Circuit::new();
/// let (a, gnd) = (ckt.node("a"), Circuit::ground());
/// ckt.add_voltage_source("V1", a, gnd, SourceWaveform::Dc(1.0))?;
/// let f1 = sfet_sim::circuit_fingerprint(&ckt, 1e-9, Method::Trapezoidal);
/// let f2 = sfet_sim::circuit_fingerprint(&ckt, 2e-9, Method::Trapezoidal);
/// assert_ne!(f1, f2, "tstop is part of the identity");
/// # Ok(())
/// # }
/// ```
pub fn circuit_fingerprint(circuit: &sfet_circuit::Circuit, tstop: f64, method: Method) -> u64 {
    fingerprint(&CompiledCircuit::compile(circuit), tstop, method)
}

/// FNV-1a fingerprint binding a snapshot to one (circuit, tstop, method)
/// triple, so a snapshot can never be restored onto the wrong run.
pub(crate) fn fingerprint(compiled: &CompiledCircuit, tstop: f64, method: Method) -> u64 {
    let mut bytes = b"sfet-ckpt".to_vec();
    bytes.extend((compiled.size as u64).to_le_bytes());
    bytes.extend((compiled.node_names.len() as u64).to_le_bytes());
    bytes.extend(compiled.devices.iter().map(device_tag));
    bytes.extend(tstop.to_bits().to_le_bytes());
    bytes.push(method_tag(method));
    sfet_numeric::fnv1a(&bytes)
}

fn device_tag(device: &SimDevice) -> u8 {
    match device {
        SimDevice::Resistor { .. } => 0,
        SimDevice::Capacitor { .. } => 1,
        SimDevice::Inductor { .. } => 2,
        SimDevice::Vsrc { .. } => 3,
        SimDevice::Isrc { .. } => 4,
        SimDevice::Mosfet { .. } => 5,
        SimDevice::Ptm { .. } => 6,
        SimDevice::Vcvs { .. } => 7,
        SimDevice::Vccs { .. } => 8,
        SimDevice::Cccs { .. } => 9,
        SimDevice::Ccvs { .. } => 10,
        SimDevice::NodeIc { .. } => 11,
    }
}

fn method_tag(method: Method) -> u8 {
    match method {
        Method::BackwardEuler => 0,
        Method::Trapezoidal => 1,
        Method::Gear2 => 2,
    }
}

/// Captures every device's dynamic state, in device order.
pub(crate) fn capture_devices(compiled: &CompiledCircuit) -> Vec<DeviceSnap> {
    compiled
        .devices
        .iter()
        .map(|device| match device {
            SimDevice::Capacitor { hist, .. } => DeviceSnap::Capacitor(*hist),
            SimDevice::Inductor { hist, .. } => DeviceSnap::Inductor(*hist),
            SimDevice::Mosfet {
                h_gs, h_gd, h_gb, ..
            } => DeviceSnap::Mosfet(*h_gs, *h_gd, *h_gb),
            SimDevice::Ptm {
                state,
                r_step,
                events,
                ..
            } => DeviceSnap::Ptm {
                snap: state.snapshot(),
                r_step: *r_step,
                events: events.clone(),
            },
            _ => DeviceSnap::Stateless,
        })
        .collect()
}

/// Restores previously captured device state onto a freshly compiled
/// circuit.
///
/// # Errors
///
/// [`SimError::Checkpoint`] if the snapshot's device list does not match
/// the circuit (count or per-device kind) — the fingerprint should have
/// caught this first, so a mismatch here means a corrupted file.
pub(crate) fn restore_devices(compiled: &mut CompiledCircuit, snaps: &[DeviceSnap]) -> Result<()> {
    if snaps.len() != compiled.devices.len() {
        return Err(SimError::Checkpoint(format!(
            "snapshot has {} devices, circuit has {}",
            snaps.len(),
            compiled.devices.len()
        )));
    }
    for (i, (device, snap)) in compiled.devices.iter_mut().zip(snaps).enumerate() {
        match (device, snap) {
            (SimDevice::Capacitor { hist, .. }, DeviceSnap::Capacitor(h)) => *hist = *h,
            (SimDevice::Inductor { hist, .. }, DeviceSnap::Inductor(h)) => *hist = *h,
            (
                SimDevice::Mosfet {
                    h_gs, h_gd, h_gb, ..
                },
                DeviceSnap::Mosfet(gs, gd, gb),
            ) => {
                *h_gs = *gs;
                *h_gd = *gd;
                *h_gb = *gb;
            }
            (
                SimDevice::Ptm {
                    state,
                    r_step,
                    events,
                    ..
                },
                DeviceSnap::Ptm {
                    snap,
                    r_step: r,
                    events: evs,
                },
            ) => {
                state.restore(snap);
                *r_step = *r;
                *events = evs.clone();
            }
            (
                SimDevice::Resistor { .. }
                | SimDevice::Vsrc { .. }
                | SimDevice::Isrc { .. }
                | SimDevice::Vcvs { .. }
                | SimDevice::Vccs { .. }
                | SimDevice::Cccs { .. }
                | SimDevice::Ccvs { .. }
                | SimDevice::NodeIc { .. },
                DeviceSnap::Stateless,
            ) => {}
            _ => {
                return Err(SimError::Checkpoint(format!(
                    "device {i} kind does not match its snapshot"
                )))
            }
        }
    }
    Ok(())
}

// --- Serialization. ---

struct Writer(Vec<u8>);

impl Writer {
    fn new() -> Self {
        Writer(Vec::with_capacity(4096))
    }
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn vec_f64(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.f64(x);
        }
    }
    fn cols(&mut self, cols: &[Vec<f64>]) {
        self.u64(cols.len() as u64);
        for col in cols {
            self.vec_f64(col);
        }
    }
    fn stats(&mut self, s: &TranStats) {
        self.u64(s.steps_attempted as u64);
        self.u64(s.steps_accepted as u64);
        self.u64(s.steps_rejected as u64);
        self.u64(s.newton_iterations as u64);
        self.u64(s.ptm_transitions as u64);
        self.u64(s.solver.full_factorizations);
        self.u64(s.solver.refactorizations);
        self.u64(s.solver.solves);
        self.u64(s.solver.pattern_rebuilds);
        self.u64(s.solver.pivot_fallbacks);
        self.u64(s.solver.factor_nnz as u64);
        self.u64(s.solver.gmres_iterations);
        self.u64(s.solver.gmres_restarts);
        self.u64(s.solver.gmres_fallbacks);
        self.u64(s.solver.solve_time_ns);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> std::result::Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("truncated at byte {}", self.pos))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }
    fn u8(&mut self) -> std::result::Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> std::result::Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> std::result::Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> std::result::Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn len(&mut self) -> std::result::Result<usize, String> {
        let n = self.u64()? as usize;
        // Each element is at least one byte; a length beyond the remaining
        // buffer is corruption, not a huge allocation request.
        if n > self.buf.len().saturating_sub(self.pos) {
            return Err(format!("implausible length {n} at byte {}", self.pos));
        }
        Ok(n)
    }
    fn vec_f64(&mut self) -> std::result::Result<Vec<f64>, String> {
        let n = self.u64()? as usize;
        if n.saturating_mul(8) > self.buf.len().saturating_sub(self.pos) {
            return Err(format!("implausible vector length {n}"));
        }
        (0..n).map(|_| self.f64()).collect()
    }
    fn cols(&mut self) -> std::result::Result<Vec<Vec<f64>>, String> {
        let n = self.len()?;
        (0..n).map(|_| self.vec_f64()).collect()
    }
    fn stats(&mut self) -> std::result::Result<TranStats, String> {
        Ok(TranStats {
            steps_attempted: self.u64()? as usize,
            steps_accepted: self.u64()? as usize,
            steps_rejected: self.u64()? as usize,
            newton_iterations: self.u64()? as usize,
            ptm_transitions: self.u64()? as usize,
            solver: SolverStats {
                full_factorizations: self.u64()?,
                refactorizations: self.u64()?,
                solves: self.u64()?,
                pattern_rebuilds: self.u64()?,
                pivot_fallbacks: self.u64()?,
                factor_nnz: self.u64()? as usize,
                gmres_iterations: self.u64()?,
                gmres_restarts: self.u64()?,
                gmres_fallbacks: self.u64()?,
                solve_time_ns: self.u64()?,
            },
        })
    }
}

fn encode(snap: &TranSnapshot, fingerprint: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.0.extend_from_slice(MAGIC);
    w.u32(CHECKPOINT_VERSION);
    w.u64(fingerprint);
    w.f64(snap.t);
    w.f64(snap.dt);
    w.u8(snap.force_be as u8);
    w.vec_f64(&snap.x);
    w.u64(snap.hist.len() as u64);
    for (t, x) in &snap.hist {
        w.f64(*t);
        w.vec_f64(x);
    }
    w.stats(&snap.stats);
    w.vec_f64(&snap.times);
    w.cols(&snap.node_data);
    w.cols(&snap.branch_data);
    w.cols(&snap.ptm_resistance);
    w.u64(snap.devices.len() as u64);
    for device in &snap.devices {
        match device {
            DeviceSnap::Stateless => w.u8(0),
            DeviceSnap::Capacitor(h) => {
                w.u8(1);
                w.f64(h.v_prev);
                w.f64(h.i_prev);
                w.f64(h.v_prev2);
            }
            DeviceSnap::Inductor(h) => {
                w.u8(2);
                w.f64(h.i_prev);
                w.f64(h.v_prev);
                w.f64(h.i_prev2);
            }
            DeviceSnap::Mosfet(gs, gd, gb) => {
                w.u8(3);
                for h in [gs, gd, gb] {
                    w.f64(h.v_prev);
                    w.f64(h.i_prev);
                    w.f64(h.v_prev2);
                }
            }
            DeviceSnap::Ptm {
                snap,
                r_step,
                events,
            } => {
                w.u8(4);
                w.u8(match snap.phase {
                    PtmPhase::Insulating => 0,
                    PtmPhase::Metallic => 1,
                });
                match snap.transition {
                    None => w.u8(0),
                    Some((start, from_r)) => {
                        w.u8(1);
                        w.f64(start);
                        w.f64(from_r);
                    }
                }
                w.f64(*r_step);
                w.u64(events.len() as u64);
                for ev in events {
                    w.f64(ev.time);
                    w.u8(match ev.to {
                        PtmPhase::Insulating => 0,
                        PtmPhase::Metallic => 1,
                    });
                }
            }
        }
    }
    w.0
}

fn decode(buf: &[u8], expected_fingerprint: u64) -> std::result::Result<TranSnapshot, String> {
    let mut r = Reader::new(buf);
    if r.take(4)? != MAGIC {
        return Err("bad magic (not a Soft-FET checkpoint)".into());
    }
    let version = r.u32()?;
    if version != CHECKPOINT_VERSION {
        return Err(format!(
            "checkpoint version {version} unsupported (this build reads v{CHECKPOINT_VERSION})"
        ));
    }
    let fp = r.u64()?;
    if fp != expected_fingerprint {
        return Err(format!(
            "fingerprint {fp:#018x} does not match this circuit/run \
             ({expected_fingerprint:#018x}); the snapshot belongs to a different run"
        ));
    }
    let t = r.f64()?;
    let dt = r.f64()?;
    let force_be = r.u8()? != 0;
    let x = r.vec_f64()?;
    let n_hist = r.len()?;
    let mut hist = Vec::with_capacity(n_hist.min(2));
    for _ in 0..n_hist {
        let th = r.f64()?;
        hist.push((th, r.vec_f64()?));
    }
    let stats = r.stats()?;
    let times = r.vec_f64()?;
    let node_data = r.cols()?;
    let branch_data = r.cols()?;
    let ptm_resistance = r.cols()?;
    let n_devices = r.len()?;
    let mut devices = Vec::with_capacity(n_devices);
    for _ in 0..n_devices {
        let snap = match r.u8()? {
            0 => DeviceSnap::Stateless,
            1 => DeviceSnap::Capacitor(CapHistory {
                v_prev: r.f64()?,
                i_prev: r.f64()?,
                v_prev2: r.f64()?,
            }),
            2 => DeviceSnap::Inductor(IndHistory {
                i_prev: r.f64()?,
                v_prev: r.f64()?,
                i_prev2: r.f64()?,
            }),
            3 => {
                let mut hs = [CapHistory::default(); 3];
                for h in &mut hs {
                    *h = CapHistory {
                        v_prev: r.f64()?,
                        i_prev: r.f64()?,
                        v_prev2: r.f64()?,
                    };
                }
                DeviceSnap::Mosfet(hs[0], hs[1], hs[2])
            }
            4 => {
                let phase = ptm_phase(r.u8()?)?;
                let transition = match r.u8()? {
                    0 => None,
                    1 => Some((r.f64()?, r.f64()?)),
                    other => return Err(format!("bad transition flag {other}")),
                };
                let r_step = r.f64()?;
                let n_events = r.len()?;
                let mut events = Vec::with_capacity(n_events);
                for _ in 0..n_events {
                    let time = r.f64()?;
                    events.push(TransitionEvent {
                        time,
                        to: ptm_phase(r.u8()?)?,
                    });
                }
                DeviceSnap::Ptm {
                    snap: PtmSnapshot { phase, transition },
                    r_step,
                    events,
                }
            }
            other => return Err(format!("unknown device tag {other}")),
        };
        devices.push(snap);
    }
    if r.pos != buf.len() {
        return Err(format!("{} trailing bytes", buf.len() - r.pos));
    }
    Ok(TranSnapshot {
        t,
        dt,
        force_be,
        x,
        hist,
        stats,
        times,
        node_data,
        branch_data,
        ptm_resistance,
        devices,
    })
}

fn ptm_phase(tag: u8) -> std::result::Result<PtmPhase, String> {
    match tag {
        0 => Ok(PtmPhase::Insulating),
        1 => Ok(PtmPhase::Metallic),
        other => Err(format!("bad phase tag {other}")),
    }
}

/// Writes a snapshot atomically: serialize to `<path>.tmp`, then rename
/// over `path`, so an existing good checkpoint is never torn by a crash
/// mid-write.
///
/// # Errors
///
/// [`SimError::Checkpoint`] describing the I/O failure.
pub(crate) fn write_snapshot(path: &Path, snap: &TranSnapshot, fingerprint: u64) -> Result<()> {
    let bytes = encode(snap, fingerprint);
    let mut tmp_os = path.as_os_str().to_os_string();
    tmp_os.push(".tmp");
    let tmp = PathBuf::from(tmp_os);
    std::fs::write(&tmp, &bytes)
        .map_err(|e| SimError::Checkpoint(format!("writing {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| SimError::Checkpoint(format!("renaming into {}: {e}", path.display())))
}

/// Reads and validates a snapshot written by [`write_snapshot`].
///
/// # Errors
///
/// [`SimError::Checkpoint`] for I/O failures, format/version problems, or
/// a circuit-fingerprint mismatch.
pub(crate) fn read_snapshot(path: &Path, expected_fingerprint: u64) -> Result<TranSnapshot> {
    let bytes = std::fs::read(path)
        .map_err(|e| SimError::Checkpoint(format!("reading {}: {e}", path.display())))?;
    decode(&bytes, expected_fingerprint)
        .map_err(|e| SimError::Checkpoint(format!("{}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> TranSnapshot {
        TranSnapshot {
            t: 1.5e-9,
            dt: 2.5e-13,
            force_be: true,
            x: vec![0.1, -0.2, 3.0e-5],
            hist: vec![
                (1.4e-9, vec![0.09, -0.19, 2.9e-5]),
                (1.45e-9, vec![0.095, -0.195, 2.95e-5]),
            ],
            stats: TranStats {
                steps_attempted: 120,
                steps_accepted: 100,
                steps_rejected: 20,
                newton_iterations: 260,
                ptm_transitions: 3,
                solver: SolverStats {
                    full_factorizations: 7,
                    refactorizations: 113,
                    solves: 260,
                    pattern_rebuilds: 1,
                    pivot_fallbacks: 0,
                    factor_nnz: 42,
                    gmres_iterations: 96,
                    gmres_restarts: 2,
                    gmres_fallbacks: 1,
                    solve_time_ns: 12345,
                },
            },
            times: vec![0.0, 1.4e-9, 1.45e-9, 1.5e-9],
            node_data: vec![vec![0.0, 0.09, 0.095, 0.1], vec![0.0, -0.19, -0.195, -0.2]],
            branch_data: vec![vec![0.0, 2.9e-5, 2.95e-5, 3.0e-5]],
            ptm_resistance: vec![vec![500e3, 500e3, 250e3, 5e3]],
            devices: vec![
                DeviceSnap::Stateless,
                DeviceSnap::Capacitor(CapHistory {
                    v_prev: 0.1,
                    i_prev: 1e-6,
                    v_prev2: 0.09,
                }),
                DeviceSnap::Ptm {
                    snap: PtmSnapshot {
                        phase: PtmPhase::Insulating,
                        transition: Some((1.45e-9, 500e3)),
                    },
                    r_step: 123e3,
                    events: vec![TransitionEvent {
                        time: 1.45e-9,
                        to: PtmPhase::Metallic,
                    }],
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trip_is_exact() {
        let snap = sample_snapshot();
        let bytes = encode(&snap, 0xdead_beef);
        let back = decode(&bytes, 0xdead_beef).unwrap();
        assert_eq!(back, snap);
        // Bitwise, not just PartialEq (solve_time_ns is excluded from
        // SolverStats equality).
        assert_eq!(back.stats.solver.solve_time_ns, 12345);
        for (a, b) in back.x.iter().zip(&snap.x) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn fingerprint_mismatch_rejected() {
        let bytes = encode(&sample_snapshot(), 1);
        let err = decode(&bytes, 2).unwrap_err();
        assert!(err.contains("different run"), "{err}");
    }

    #[test]
    fn version_and_magic_guarded() {
        let mut bytes = encode(&sample_snapshot(), 1);
        bytes[0] = b'X';
        assert!(decode(&bytes, 1).unwrap_err().contains("magic"));
        let mut bytes = encode(&sample_snapshot(), 1);
        bytes[4] = 99;
        assert!(decode(&bytes, 1).unwrap_err().contains("version"));
    }

    #[test]
    fn truncation_detected() {
        let bytes = encode(&sample_snapshot(), 1);
        for cut in [5, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode(&bytes[..cut], 1).is_err(),
                "cut at {cut} must not decode"
            );
        }
        // Trailing garbage is also rejected.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode(&padded, 1).unwrap_err().contains("trailing"));
    }

    #[test]
    fn atomic_write_and_read_back() {
        let path = std::env::temp_dir().join(format!("sfet-ckpt-test-{}.bin", std::process::id()));
        let snap = sample_snapshot();
        write_snapshot(&path, &snap, 7).unwrap();
        // Overwrite with the same contents: the rename path must handle an
        // existing destination.
        write_snapshot(&path, &snap, 7).unwrap();
        let back = read_snapshot(&path, 7).unwrap();
        assert_eq!(back, snap);
        assert!(matches!(
            read_snapshot(&path, 8),
            Err(SimError::Checkpoint(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn policy_builders() {
        assert!(!CheckpointPolicy::disabled().is_active());
        let p = CheckpointPolicy::write_to("a.ckpt", 0);
        assert_eq!(p.checkpoint_every, 1, "zero clamps to every step");
        assert!(p.is_active());
        let p = CheckpointPolicy::default().resume_if_exists("/nonexistent/path.ckpt");
        assert!(p.resume_from.is_none(), "missing file: fresh start");
    }
}
