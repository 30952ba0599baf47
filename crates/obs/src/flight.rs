//! Flight-recorder primitives: a fixed-capacity ring of packed per-tick
//! records plus a lossless JSONL codec for incident artifacts.
//!
//! The ring is the *black box* of a run: the engine writes one
//! [`TickRecord`] per simulation tick (detector score/slope, armed and
//! alarm state, modeled phase latencies and deadline margin, actuator
//! command deltas) into a buffer whose storage is allocated once at
//! construction. Steady-state recording allocates zero bytes — pushed
//! records overwrite the oldest once the ring is full — and records
//! carry **no timestamps**, so a recording is a pure function of the
//! run's seeds: bit-identical across `DIVERSEAV_THREADS` and across
//! sharded vs. monolithic execution (`ci/lint.sh` Gate 4 greps this
//! module for wall-clock calls).
//!
//! When a run ends in an incident the ring is drained oldest-first and
//! serialized via [`render_record`] / [`parse_record`]: every `f64` as
//! its IEEE-754 bit pattern ([`json::f64_bits`]), every integer as a
//! quoted decimal, so the artifact round-trips bit-exactly (NaNs and
//! infinities included).

use crate::json::{self, Value};

/// Schema version stamped into incident-artifact manifests that embed
/// [`TickRecord`] payloads. Bump on any layout change.
pub const FLIGHT_SCHEMA_VERSION: u32 = 1;

/// Default ring capacity: the last ~12.8 s of a 40 Hz run, enough to
/// cover fault onset → alarm for every calibrated fault class while
/// keeping a drained incident under ~100 KiB.
pub const DEFAULT_RING_CAPACITY: usize = 512;

/// Flag bit: the detector observed a divergence sample this tick.
pub const FLAG_DETECTOR_OBSERVED: u8 = 1 << 0;
/// Flag bit: the trend path was armed (EWMA slope above threshold with
/// the score past the arming floor).
pub const FLAG_TREND_ARMED: u8 = 1 << 1;
/// Flag bit: the detector raised its alarm on this tick.
pub const FLAG_ALARM: u8 = 1 << 2;
/// Flag bit: an injected fault was active (had corrupted state) by this
/// tick.
pub const FLAG_FAULT_ACTIVE: u8 = 1 << 3;
/// Flag bit: the modeled tick latency missed the 25 ms deadline.
pub const FLAG_DEADLINE_MISS: u8 = 1 << 4;

/// One packed per-tick flight-recorder sample. `Copy` and fixed-size on
/// purpose: pushing one into a [`FlightRing`] is a store, never an
/// allocation.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct TickRecord {
    /// Simulation tick index (0-based from run start).
    pub tick: u64,
    /// Bit set over the `FLAG_*` constants.
    pub flags: u8,
    /// Normalized divergence score: max over channels of
    /// smoothed-divergence / threshold. 1.0 is the alarm line; 0.0 when
    /// the detector did not observe this tick.
    pub score: f64,
    /// Trend-EWMA slope of the score's first difference.
    pub slope: f64,
    /// Detector threshold margin, `1.0 - score` — positive while below
    /// the alarm line, negative once past it.
    pub margin: f64,
    /// Modeled per-phase latencies in ns: sense, driver, detect, step.
    pub phase_ns: [u64; 4],
    /// Deadline margin in ns: 25 ms budget minus the modeled tick total
    /// (negative on a miss).
    pub deadline_margin_ns: i64,
    /// Fused throttle delta vs. the previous tick's command.
    pub d_throttle: f64,
    /// Fused brake delta vs. the previous tick's command.
    pub d_brake: f64,
    /// Fused steer delta vs. the previous tick's command.
    pub d_steer: f64,
}

impl TickRecord {
    /// Whether the detector observed a divergence sample this tick.
    pub fn detector_observed(&self) -> bool {
        self.flags & FLAG_DETECTOR_OBSERVED != 0
    }

    /// Whether the trend path was armed this tick.
    pub fn trend_armed(&self) -> bool {
        self.flags & FLAG_TREND_ARMED != 0
    }

    /// Whether the detector alarm fired on this tick.
    pub fn alarm(&self) -> bool {
        self.flags & FLAG_ALARM != 0
    }

    /// Whether an injected fault was active by this tick.
    pub fn fault_active(&self) -> bool {
        self.flags & FLAG_FAULT_ACTIVE != 0
    }

    /// Whether the modeled tick latency missed the deadline.
    pub fn deadline_miss(&self) -> bool {
        self.flags & FLAG_DEADLINE_MISS != 0
    }
}

/// Fixed-capacity overwrite-oldest ring of [`TickRecord`]s.
///
/// Storage is allocated once in [`FlightRing::new`]; [`push`] never
/// allocates (the zero-alloc gate in `tests/zero_alloc.rs` covers the
/// recorder end-to-end). Once `capacity` records have been pushed, each
/// new record replaces the oldest; [`iter`] always yields the retained
/// window oldest-first.
///
/// [`push`]: FlightRing::push
/// [`iter`]: FlightRing::iter
#[derive(Clone, Debug)]
pub struct FlightRing {
    buf: Vec<TickRecord>,
    cap: usize,
    pushed: u64,
}

impl FlightRing {
    /// A ring retaining the last `capacity` records (clamped to ≥ 1).
    /// This is the only allocation the ring ever performs.
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        FlightRing { buf: Vec::with_capacity(cap), cap, pushed: 0 }
    }

    /// Append a record, overwriting the oldest once full. Never
    /// allocates: the buffer was sized at construction.
    pub fn push(&mut self, r: TickRecord) {
        if self.buf.len() < self.cap {
            self.buf.push(r);
        } else {
            self.buf[(self.pushed % self.cap as u64) as usize] = r;
        }
        self.pushed += 1;
    }

    /// Records currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The retention limit fixed at construction.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total records pushed over the ring's lifetime (may exceed
    /// capacity; the excess was overwritten).
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Retained records oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &TickRecord> {
        let split =
            if self.buf.len() < self.cap { 0 } else { (self.pushed % self.cap as u64) as usize };
        self.buf[split..].iter().chain(self.buf[..split].iter())
    }

    /// Drain the retained window oldest-first into an owned `Vec` — the
    /// incident-flush path. Allocates (once), so callers only invoke it
    /// after the run has ended.
    pub fn drain_ordered(&self) -> Vec<TickRecord> {
        self.iter().copied().collect()
    }
}

/// Render one [`TickRecord`] as a single-line JSON object, losslessly:
/// `f64`s as IEEE-754 bit-hex, `u64`/`i64` as quoted decimals.
pub fn render_record(r: &TickRecord) -> String {
    format!(
        "{{\"tick\": {}, \"flags\": {}, \"score\": {}, \"slope\": {}, \"margin\": {}, \
         \"phase_ns\": [{}, {}, {}, {}], \"deadline_margin_ns\": \"{}\", \
         \"d_throttle\": {}, \"d_brake\": {}, \"d_steer\": {}}}",
        json::u64_str(r.tick),
        r.flags,
        json::f64_bits(r.score),
        json::f64_bits(r.slope),
        json::f64_bits(r.margin),
        json::u64_str(r.phase_ns[0]),
        json::u64_str(r.phase_ns[1]),
        json::u64_str(r.phase_ns[2]),
        json::u64_str(r.phase_ns[3]),
        r.deadline_margin_ns,
        json::f64_bits(r.d_throttle),
        json::f64_bits(r.d_brake),
        json::f64_bits(r.d_steer),
    )
}

/// Parse a value rendered by [`render_record`], bit-exactly.
///
/// # Errors
///
/// Any missing member, wrong encoding, or out-of-range flag byte.
pub fn parse_record(v: &Value) -> Result<TickRecord, String> {
    let flags = v.req_u64("flags")?;
    let flags =
        u8::try_from(flags).map_err(|_| format!("member \"flags\" out of byte range: {flags}"))?;
    let phases = v.req_arr("phase_ns")?;
    if phases.len() != 4 {
        return Err(format!("member \"phase_ns\" must hold 4 phases, got {}", phases.len()));
    }
    let mut phase_ns = [0u64; 4];
    for (slot, p) in phase_ns.iter_mut().zip(phases) {
        *slot = json::parse_u64_str(p).map_err(|e| format!("member \"phase_ns\": {e}"))?;
    }
    let deadline_margin_ns = v.req_with("deadline_margin_ns", |m| {
        let s = m.as_str().ok_or("must be a decimal string")?;
        s.parse::<i64>().map_err(|e| format!("bad i64 string {s:?}: {e}"))
    })?;
    Ok(TickRecord {
        tick: v.req_u64_str("tick")?,
        flags,
        score: v.req_f64_bits("score")?,
        slope: v.req_f64_bits("slope")?,
        margin: v.req_f64_bits("margin")?,
        phase_ns,
        deadline_margin_ns,
        d_throttle: v.req_f64_bits("d_throttle")?,
        d_brake: v.req_f64_bits("d_brake")?,
        d_steer: v.req_f64_bits("d_steer")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(tick: u64) -> TickRecord {
        TickRecord {
            tick,
            flags: FLAG_DETECTOR_OBSERVED | FLAG_FAULT_ACTIVE,
            score: 0.25 + tick as f64,
            slope: -0.5,
            margin: 0.75 - tick as f64,
            phase_ns: [1_000_000, 2_000_000, 350_000, 500_000 + tick],
            deadline_margin_ns: 25_000_000 - 3_850_000 - tick as i64,
            d_throttle: 0.01,
            d_brake: -0.0,
            d_steer: 0.002 * tick as f64,
        }
    }

    #[test]
    fn ring_retains_last_capacity_in_order() {
        let mut ring = FlightRing::new(4);
        assert!(ring.is_empty());
        for t in 0..3 {
            ring.push(rec(t));
        }
        assert_eq!(ring.len(), 3);
        let ticks: Vec<u64> = ring.iter().map(|r| r.tick).collect();
        assert_eq!(ticks, vec![0, 1, 2], "unwrapped ring is in push order");

        for t in 3..11 {
            ring.push(rec(t));
        }
        assert_eq!(ring.len(), 4, "capacity bounds retention");
        assert_eq!(ring.pushed(), 11);
        let ticks: Vec<u64> = ring.iter().map(|r| r.tick).collect();
        assert_eq!(ticks, vec![7, 8, 9, 10], "wrapped ring keeps the last C, oldest first");
        assert_eq!(ring.drain_ordered().len(), 4);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut ring = FlightRing::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.push(rec(0));
        ring.push(rec(1));
        assert_eq!(ring.iter().map(|r| r.tick).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn record_round_trips_bit_exactly() {
        let mut r = rec(42);
        r.score = f64::NAN;
        r.slope = f64::NEG_INFINITY;
        r.deadline_margin_ns = -1_234_567;
        let line = render_record(&r);
        let v = json::parse(&line).expect("record line parses");
        let back = parse_record(&v).expect("record reconstructs");
        assert_eq!(back.tick, r.tick);
        assert_eq!(back.flags, r.flags);
        assert_eq!(back.score.to_bits(), r.score.to_bits(), "NaN payload survives");
        assert_eq!(back.slope.to_bits(), r.slope.to_bits());
        assert_eq!(back.margin.to_bits(), r.margin.to_bits());
        assert_eq!(back.phase_ns, r.phase_ns);
        assert_eq!(back.deadline_margin_ns, r.deadline_margin_ns);
        assert_eq!(back.d_brake.to_bits(), (-0.0f64).to_bits(), "-0.0 survives");
    }

    #[test]
    fn parse_rejects_malformed_records() {
        let good = render_record(&rec(1));
        let v = json::parse(&good).unwrap();
        assert!(parse_record(&v).is_ok());
        for bad in [
            good.replace("\"tick\"", "\"tock\""),
            good.replace("\"flags\": 9", "\"flags\": 1.5"),
            good.replace("\"flags\": 9", "\"flags\": 300"),
            good.replace("\"deadline_margin_ns\": \"", "\"deadline_margin_ns\": \"x"),
        ] {
            if bad == good {
                continue; // replacement did not apply; covered elsewhere
            }
            let v = json::parse(&bad).expect("still JSON");
            assert!(parse_record(&v).is_err(), "{bad} must not parse as a record");
        }
        // phase_ns must hold exactly 4 entries.
        let truncated = good.replace(
            &format!("[{}, {}, ", json::u64_str(1_000_000), json::u64_str(2_000_000)),
            &format!("[{}, ", json::u64_str(1_000_000)),
        );
        let v = json::parse(&truncated).expect("still JSON");
        assert!(parse_record(&v).is_err(), "3-phase record must be refused");
    }

    #[test]
    fn flag_helpers_match_bits() {
        let mut r = TickRecord::default();
        assert!(!r.detector_observed() && !r.alarm());
        r.flags = FLAG_ALARM | FLAG_TREND_ARMED | FLAG_DEADLINE_MISS;
        assert!(r.alarm() && r.trend_armed() && r.deadline_miss());
        assert!(!r.detector_observed() && !r.fault_active());
    }
}
