//! Ablation study: which of Lunule's design choices carries how much of the
//! win. Beyond the paper's own Lunule-Light variant, this toggles off, one
//! at a time: the urgency term (U ≡ 1), the importer future-load
//! correction, sibling-correlation propagation, and the per-epoch
//! migration-capacity clamp.

use lunule_bench::{default_sim, write_json, CommonArgs};
use lunule_core::{AnalyzerConfig, IfModelConfig, LunuleBalancer, LunuleConfig, RoleConfig};
use lunule_sim::Simulation;
use lunule_workloads::{WorkloadKind, WorkloadSpec};

struct Variant {
    name: &'static str,
    cfg: LunuleConfig,
}

fn variants(capacity: f64) -> Vec<Variant> {
    let base = LunuleConfig {
        if_model: IfModelConfig {
            mds_capacity: capacity,
            ..IfModelConfig::default()
        },
        roles: RoleConfig {
            migration_capacity: capacity * 0.5,
        },
        ..LunuleConfig::default()
    };
    vec![
        Variant {
            name: "full",
            cfg: base.clone(),
        },
        Variant {
            name: "no-urgency",
            cfg: LunuleConfig {
                ablate_urgency: true,
                ..base.clone()
            },
        },
        Variant {
            name: "no-future-load",
            cfg: LunuleConfig {
                ablate_future_load: true,
                ..base.clone()
            },
        },
        Variant {
            name: "no-sibling",
            cfg: LunuleConfig {
                analyzer: AnalyzerConfig {
                    sibling_probability: 0.0,
                },
                ..base.clone()
            },
        },
        Variant {
            name: "no-migration-cap",
            cfg: LunuleConfig {
                roles: RoleConfig {
                    migration_capacity: f64::MAX,
                },
                ..base.clone()
            },
        },
        Variant {
            name: "heat-selection (Light)",
            cfg: LunuleConfig {
                workload_aware: false,
                ..base.clone()
            },
        },
    ]
}

fn main() {
    let args = CommonArgs::parse();
    let sim = default_sim();
    let mut dump = Vec::new();
    for kind in [WorkloadKind::Cnn, WorkloadKind::ZipfRead] {
        println!("\n# Ablation — {kind}");
        println!(
            "{:<24} {:>9} {:>10} {:>10} {:>10}",
            "variant", "mean IF", "mean IOPS", "migrated", "JCT p99(s)"
        );
        for v in variants(sim.mds_capacity) {
            let spec = WorkloadSpec {
                kind,
                clients: args.clients,
                scale: args.scale,
                seed: args.seed,
            };
            let (ns, streams) = spec.build();
            let balancer = Box::new(LunuleBalancer::new(v.cfg));
            let r = Simulation::new(sim.clone(), ns, balancer, streams).run();
            let jct = r
                .jct_percentile(0.99)
                .map(|x| x.to_string())
                .unwrap_or_else(|| "n/a".into());
            println!(
                "{:<24} {:>9.3} {:>10.0} {:>10} {:>10}",
                v.name,
                r.mean_if(),
                r.mean_iops(),
                r.migrated_inodes(),
                jct
            );
            dump.push((
                kind.label(),
                v.name,
                r.mean_if(),
                r.mean_iops(),
                r.migrated_inodes(),
            ));
        }
    }
    write_json(&args.out_dir, "ablation", &dump);
}
