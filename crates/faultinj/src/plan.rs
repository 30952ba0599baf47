//! The Injection Plan Generator (Fig 3): samples transient fault sites
//! from a profiling run and enumerates opcodes for permanent campaigns,
//! mirroring the NVBitFI/PinFI methodology of §IV-D. The sensor-boundary
//! extension (ROADMAP item 5) adds per-class [`SensorFaultKind`] plan
//! dimensions alongside the register-flip campaigns.

use crate::campaign::splitmix64;
use crate::runner::{FaultSpec, RunResult};
use diverseav_fabric::{FaultModel, Op, Profile};
use diverseav_runtime::{SensorFault, SensorFaultKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The fault-model axis of a campaign: register flips (transient /
/// permanent, §II-B) or one sensor-boundary fault class.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum FaultModelKind {
    /// One corrupted dynamic instruction per run.
    Transient,
    /// Every dynamic instance of one opcode corrupted, per run.
    Permanent,
    /// One sensor-boundary fault of the given class per run, injected
    /// between `World::capture_into` and the driver.
    Sensor(SensorFaultKind),
}

impl FaultModelKind {
    /// Every sensor-fault campaign kind, in stable enumeration order.
    pub const SENSOR_KINDS: [FaultModelKind; 5] = [
        FaultModelKind::Sensor(SensorFaultKind::Dropout),
        FaultModelKind::Sensor(SensorFaultKind::BiasDrift),
        FaultModelKind::Sensor(SensorFaultKind::OutlierBurst),
        FaultModelKind::Sensor(SensorFaultKind::NoiseInflation),
        FaultModelKind::Sensor(SensorFaultKind::Oscillation),
    ];

    /// Short label used in reports and shard manifests ("transient",
    /// "permanent", "sensor-<class>").
    pub fn label(self) -> &'static str {
        match self {
            FaultModelKind::Transient => "transient",
            FaultModelKind::Permanent => "permanent",
            FaultModelKind::Sensor(class) => match class {
                SensorFaultKind::Dropout => "sensor-dropout",
                SensorFaultKind::BiasDrift => "sensor-bias-drift",
                SensorFaultKind::OutlierBurst => "sensor-outlier-burst",
                SensorFaultKind::NoiseInflation => "sensor-noise-inflation",
                SensorFaultKind::Oscillation => "sensor-oscillation",
            },
        }
    }

    /// Parse a label produced by [`label`](Self::label) (the shard CLI's
    /// `--kind` axis).
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "transient" => Some(FaultModelKind::Transient),
            "permanent" => Some(FaultModelKind::Permanent),
            _ => {
                let class = s.strip_prefix("sensor-")?;
                SensorFaultKind::from_label(class).map(FaultModelKind::Sensor)
            }
        }
    }
}

/// Seed of one stratum's draw stream in a guided campaign (see
/// [`crate::guided`]): the campaign's plan seed with the stratum code and
/// the epoch index folded through the same SplitMix64 mix the uniform
/// planner uses. Every (campaign, stratum, epoch) triple gets its own
/// well-separated stream, so re-allocating budget between epochs never
/// perturbs the draws of any other stratum — the property that keeps
/// guided shard artifacts bit-identical across shard/kill/resume mixes.
pub fn stratum_seed(plan_seed: u64, stratum_code: u64, epoch: usize) -> u64 {
    // Mix the plan seed before folding the stratum code in, so that
    // (plan_seed, code) pairs with an equal XOR cannot collide.
    let mut seed = splitmix64(plan_seed ^ 0xF417);
    for code in [stratum_code, 0xE70C ^ epoch as u64] {
        seed = splitmix64(seed ^ code);
    }
    seed
}

/// Number of opcode classes on the guided permanent-fault stratum axis.
pub const OP_CLASSES: usize = 4;

/// Labels of the opcode classes, indexed by [`op_class`].
pub const OP_CLASS_LABELS: [&str; OP_CLASSES] = ["float", "int", "mem", "ctl"];

/// Opcode class of `op` for guided permanent-fault stratification:
/// floating-point arithmetic (including compares and conversions),
/// integer arithmetic/logic, data movement, and control flow.
pub fn op_class(op: Op) -> usize {
    match op {
        Op::FAdd
        | Op::FSub
        | Op::FMul
        | Op::FDiv
        | Op::FMin
        | Op::FMax
        | Op::FAbs
        | Op::FNeg
        | Op::FSqrt
        | Op::FFma
        | Op::FLt
        | Op::FLe
        | Op::F2I
        | Op::I2F => 0,
        Op::IAdd
        | Op::ISub
        | Op::IMul
        | Op::IAnd
        | Op::IOr
        | Op::IXor
        | Op::IShl
        | Op::IShr
        | Op::ILt
        | Op::IEq => 1,
        Op::Ld | Op::St | Op::LdImm | Op::Mov | Op::Sel | Op::Tid => 2,
        Op::Jmp | Op::Jz | Op::Jnz | Op::Halt => 3,
    }
}

/// Plan-generation parameters.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct PlanConfig {
    /// Campaign kind.
    pub kind: FaultModelKind,
    /// Target fabric.
    pub target: Profile,
    /// Number of transient injections to sample.
    pub n_transient: usize,
    /// Repeats per opcode for permanent campaigns (the paper uses 3 to
    /// capture nondeterministic effects).
    pub repeats: usize,
    /// Sampling seed.
    pub seed: u64,
}

/// Generate the injection plan for one campaign from a profiling run.
///
/// Transient sites are drawn uniformly over the profiled dynamic
/// instruction stream; permanent faults enumerate every opcode the
/// profiling run actually executed on the target fabric (the paper's "171
/// GPU opcodes / 131 Intel opcodes" enumeration). Masks are single random
/// bit flips of the 32-bit destination register. Sensor plans draw
/// `n_transient` per-run realization seeds — each realized fault (onset,
/// magnitudes, per-frame noise) is then a pure function of its seed, so
/// sharding and caching work exactly as for register campaigns.
pub fn generate_plan(profile_run: &RunResult, cfg: &PlanConfig) -> Vec<FaultSpec> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xF417);
    let mut specs = Vec::new();
    match cfg.kind {
        FaultModelKind::Transient => {
            let space = match cfg.target {
                Profile::Gpu => profile_run.gpu_dyn_instr,
                Profile::Cpu => profile_run.cpu_dyn_instr,
            };
            assert!(space > 0, "profiling run executed no instructions on {}", cfg.target);
            for _ in 0..cfg.n_transient {
                let instr_index = rng.gen_range(0..space);
                let mask = 1u32 << rng.gen_range(0..32);
                specs.push(FaultSpec::Fabric {
                    unit: 0,
                    profile: cfg.target,
                    model: FaultModel::Transient { instr_index, mask },
                });
            }
        }
        FaultModelKind::Permanent => {
            let ops: Vec<Op> = match cfg.target {
                Profile::Gpu => profile_run.gpu_ops.iter().map(|&(op, _)| op).collect(),
                Profile::Cpu => profile_run.cpu_ops.iter().map(|&(op, _)| op).collect(),
            };
            assert!(!ops.is_empty(), "profiling run used no opcodes on {}", cfg.target);
            for op in ops {
                for _ in 0..cfg.repeats {
                    let mask = 1u32 << rng.gen_range(0..32);
                    specs.push(FaultSpec::Fabric {
                        unit: 0,
                        profile: cfg.target,
                        model: FaultModel::Permanent { op, mask },
                    });
                }
            }
        }
        FaultModelKind::Sensor(class) => {
            for _ in 0..cfg.n_transient {
                let seed: u64 = rng.gen();
                specs.push(FaultSpec::Sensor(SensorFault { kind: class, seed }));
            }
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Termination;
    use diverseav::AgentMode;

    fn fake_profile() -> RunResult {
        RunResult {
            scenario: "test",
            mode: AgentMode::RoundRobin,
            fault: None,
            seed: 0,
            termination: Termination::Completed,
            end_time: 1.0,
            collision_time: None,
            alarm_time: None,
            fault_activated: false,
            fault_onset_time: None,
            min_cvip: 10.0,
            red_light_violations: 0,
            ticks: 0,
            deadline_misses: 0,
            incident: None,
            flight: Vec::new(),
            trajectory: Vec::new(),
            training: Vec::new(),
            actuation: Vec::new(),
            gpu_dyn_instr: 1_000_000,
            cpu_dyn_instr: 10_000,
            gpu_ops: vec![(Op::FAdd, 500), (Op::FMul, 300), (Op::Ld, 200)],
            cpu_ops: vec![(Op::IAdd, 100), (Op::FSub, 50)],
            stratum: None,
            weight: None,
        }
    }

    #[test]
    fn transient_plan_samples_within_space() {
        let cfg = PlanConfig {
            kind: FaultModelKind::Transient,
            target: Profile::Gpu,
            n_transient: 50,
            repeats: 3,
            seed: 1,
        };
        let plan = generate_plan(&fake_profile(), &cfg);
        assert_eq!(plan.len(), 50);
        for spec in &plan {
            match spec {
                FaultSpec::Fabric {
                    profile,
                    model: FaultModel::Transient { instr_index, mask },
                    ..
                } => {
                    assert_eq!(*profile, Profile::Gpu);
                    assert!(*instr_index < 1_000_000);
                    assert_eq!(mask.count_ones(), 1, "single-bit masks");
                }
                other => panic!("expected transient fabric fault, got {other:?}"),
            }
        }
    }

    #[test]
    fn permanent_plan_enumerates_used_opcodes() {
        let cfg = PlanConfig {
            kind: FaultModelKind::Permanent,
            target: Profile::Cpu,
            n_transient: 0,
            repeats: 3,
            seed: 2,
        };
        let plan = generate_plan(&fake_profile(), &cfg);
        assert_eq!(plan.len(), 2 * 3, "2 used CPU opcodes × 3 repeats");
        assert!(plan.iter().all(|s| matches!(
            s,
            FaultSpec::Fabric { model: FaultModel::Permanent { op, .. }, .. }
                if *op == Op::IAdd || *op == Op::FSub
        )));
    }

    #[test]
    fn sensor_plan_draws_seed_pure_realizations() {
        for class in SensorFaultKind::ALL {
            let cfg = PlanConfig {
                kind: FaultModelKind::Sensor(class),
                target: Profile::Gpu,
                n_transient: 12,
                repeats: 3,
                seed: 9,
            };
            let plan = generate_plan(&fake_profile(), &cfg);
            assert_eq!(plan.len(), 12, "sensor plans size like transient plans");
            let mut seeds: Vec<u64> = plan
                .iter()
                .map(|s| match s {
                    FaultSpec::Sensor(sf) => {
                        assert_eq!(sf.kind, class);
                        sf.seed
                    }
                    other => panic!("expected sensor fault, got {other:?}"),
                })
                .collect();
            assert_eq!(plan, generate_plan(&fake_profile(), &cfg), "seed-pure");
            seeds.sort_unstable();
            seeds.dedup();
            assert!(seeds.len() > 10, "realization seeds are well spread");
        }
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        let cfg = PlanConfig {
            kind: FaultModelKind::Transient,
            target: Profile::Gpu,
            n_transient: 10,
            repeats: 1,
            seed: 3,
        };
        assert_eq!(generate_plan(&fake_profile(), &cfg), generate_plan(&fake_profile(), &cfg));
        let other = PlanConfig { seed: 4, ..cfg };
        assert_ne!(generate_plan(&fake_profile(), &cfg), generate_plan(&fake_profile(), &other));
    }

    #[test]
    fn labels() {
        assert_eq!(FaultModelKind::Transient.label(), "transient");
        assert_eq!(FaultModelKind::Permanent.label(), "permanent");
        assert_eq!(FaultModelKind::Sensor(SensorFaultKind::BiasDrift).label(), "sensor-bias-drift");
        let all: Vec<&str> = FaultModelKind::SENSOR_KINDS.iter().map(|k| k.label()).collect();
        assert_eq!(
            all,
            [
                "sensor-dropout",
                "sensor-bias-drift",
                "sensor-outlier-burst",
                "sensor-noise-inflation",
                "sensor-oscillation"
            ]
        );
    }

    #[test]
    fn stratum_seeds_separate_stratum_and_epoch() {
        let mut seeds: Vec<u64> = Vec::new();
        for code in [0x7100u64, 0x7101, 0x7200] {
            for epoch in 0..3 {
                seeds.push(stratum_seed(0xC0FE, code, epoch));
            }
        }
        seeds.push(stratum_seed(0xC0FF, 0x7100, 0));
        let n = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), n, "every (plan seed, stratum, epoch) gets its own stream");
        assert_eq!(stratum_seed(1, 2, 3), stratum_seed(1, 2, 3), "pure function");
    }

    #[test]
    fn op_classes_cover_all_opcodes() {
        use diverseav_fabric::ALL_OPS;
        let mut counts = [0usize; OP_CLASSES];
        for &op in ALL_OPS {
            counts[op_class(op)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "every class is inhabited: {counts:?}");
        assert_eq!(op_class(Op::FAdd), 0);
        assert_eq!(op_class(Op::IAdd), 1);
        assert_eq!(op_class(Op::Ld), 2);
        assert_eq!(op_class(Op::Jmp), 3);
    }

    #[test]
    fn labels_round_trip_through_from_label() {
        let kinds = [FaultModelKind::Transient, FaultModelKind::Permanent]
            .into_iter()
            .chain(FaultModelKind::SENSOR_KINDS);
        for kind in kinds {
            assert_eq!(FaultModelKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(FaultModelKind::from_label("sensor-bogus"), None);
        assert_eq!(FaultModelKind::from_label("bogus"), None);
    }
}
