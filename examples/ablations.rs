//! Ablations of the design choices DESIGN.md calls out:
//!
//! * **adaptive vs fixed-degree prefetching** — the ICPP'93 claim the paper
//!   leans on ("the need to adjust the degree of prefetching dynamically
//!   ... was demonstrated");
//! * **competitive threshold 1 with write caches vs threshold 4 without**
//!   — the paper's Section 3.3 trade-off ("a competitive update protocol
//!   with write caches and a threshold of one will in general exhibit less
//!   network traffic ... than a competitive-update protocol using a
//!   threshold of four and no write caches");
//! * **migratory reversion on/off** — the extra cache state's payoff;
//! * **write-cache capacity** — the paper's "a direct-mapped write cache
//!   with only four blocks is very effective" sizing claim.
//!
//! Each ablation prints one table to stdout, at Small scale on 16
//! processors; `EXPERIMENTS.md` records the values:
//!
//! ```text
//! cargo run --release --example ablations
//! ```

use dirext_core::config::{CompetitiveConfig, Consistency, PrefetchConfig, ProtocolConfig};
use dirext_sim::{Machine, MachineConfig};
use dirext_workloads::{App, Scale};

fn workload(app: App) -> dirext_sim::trace::Workload {
    app.workload(16, Scale::Small)
}

fn prefetch_cfg(adaptive: bool, k: u32) -> ProtocolConfig {
    ProtocolConfig {
        consistency: Consistency::Rc,
        prefetch: Some(PrefetchConfig {
            initial_k: k,
            adaptive,
            ..PrefetchConfig::default()
        }),
        migratory: false,
        migratory_revert: true,
        exclusive_clean: false,
        competitive: None,
    }
}

fn competitive_cfg(threshold: u8, write_cache: bool) -> ProtocolConfig {
    ProtocolConfig {
        consistency: Consistency::Rc,
        prefetch: None,
        migratory: false,
        migratory_revert: true,
        exclusive_clean: false,
        competitive: Some(CompetitiveConfig {
            threshold,
            write_cache,
        }),
    }
}

fn run(cfg: ProtocolConfig, w: &dirext_sim::trace::Workload) -> dirext_sim::stats::Metrics {
    Machine::new(MachineConfig::paper_default(cfg))
        .run(w)
        .expect("run")
}

fn main() {
    // --- Ablation 1: adaptive vs fixed K -------------------------------
    println!("\nAblation: adaptive vs fixed-degree sequential prefetching");
    println!("app        variant      exec(pclk)  misses  pf-issued  pf-useful%");
    for app in [App::Lu, App::Mp3d, App::Ocean] {
        let w = workload(app);
        for (label, cfg) in [
            ("adaptive", prefetch_cfg(true, 1)),
            ("fixed-K1", prefetch_cfg(false, 1)),
            ("fixed-K4", prefetch_cfg(false, 4)),
            ("fixed-K16", prefetch_cfg(false, 16)),
        ] {
            let m = run(cfg, &w);
            println!(
                "{:10} {:11}  {:10}  {:6}  {:9}  {:9.0}",
                app.name(),
                label,
                m.exec_cycles,
                m.slc_misses,
                m.prefetches_issued,
                100.0 * m.prefetch_efficiency()
            );
        }
    }

    // --- Ablation 2: write cache vs larger threshold -------------------
    println!("\nAblation: competitive threshold 1 + write cache vs threshold 4 without");
    println!("app        variant      exec(pclk)  coh-misses  net-bytes");
    for app in [App::Water, App::Ocean] {
        let w = workload(app);
        for (label, cfg) in [
            ("t1+wc", competitive_cfg(1, true)),
            ("t4+wc", competitive_cfg(4, true)),
            ("t4-nowc", competitive_cfg(4, false)),
            ("t1-nowc", competitive_cfg(1, false)),
        ] {
            let m = run(cfg, &w);
            println!(
                "{:10} {:11}  {:10}  {:10}  {:9}",
                app.name(),
                label,
                m.exec_cycles,
                m.coh_misses,
                m.net_bytes
            );
        }
    }
    // --- Ablation 3: migratory reversion on/off ------------------------
    println!("\nAblation: migratory reversion (the self-correcting cache state)");
    println!("app        variant      exec(pclk)  reverts  coh-misses");
    for app in [App::Mp3d, App::Ocean] {
        let w = workload(app);
        for (label, revert) in [("revert-on", true), ("revert-off", false)] {
            let cfg = ProtocolConfig {
                consistency: Consistency::Rc,
                prefetch: None,
                migratory: true,
                migratory_revert: revert,
                exclusive_clean: false,
                competitive: None,
            };
            let m = run(cfg, &w);
            println!(
                "{:10} {:11}  {:10}  {:7}  {:10}",
                app.name(),
                label,
                m.exec_cycles,
                m.migratory_reverts,
                m.coh_misses
            );
        }
    }

    // --- Ablation: hardware vs software prefetching ---------------------
    println!("\nAblation: hardware adaptive vs software-annotated prefetching (LU)");
    {
        use dirext_workloads::{lu, lu_software_prefetch};
        let plain = lu(16, Scale::Small);
        let swpf = lu_software_prefetch(16, Scale::Small);
        let base = run(ProtocolConfig::basic(Consistency::Rc), &plain);
        let hw = run(prefetch_cfg(true, 1), &plain);
        let sw = run(ProtocolConfig::basic(Consistency::Rc), &swpf);
        println!(
            "  BASIC              exec={} misses={}",
            base.exec_cycles, base.slc_misses
        );
        println!(
            "  P (hardware)       exec={} misses={} rel={:.2}",
            hw.exec_cycles,
            hw.slc_misses,
            hw.relative_time(&base)
        );
        println!(
            "  software prefetch  exec={} misses={} rel={:.2}",
            sw.exec_cycles,
            sw.slc_misses,
            sw.relative_time(&base)
        );
    }

    // --- Ablation: MESI E-state vs the migratory optimization -----------
    println!("\nAblation: how much of M does a plain MESI exclusive-clean state capture?");
    println!("(SC, where the write penalty is visible)");
    println!("app        variant      exec(pclk)  ownership-reqs  write-stall");
    for app in [App::Mp3d, App::Water] {
        let w = workload(app);
        let variants: [(&str, ProtocolConfig); 3] = [
            ("BASIC", ProtocolConfig::basic(Consistency::Sc)),
            (
                "MESI-E",
                ProtocolConfig {
                    exclusive_clean: true,
                    ..ProtocolConfig::basic(Consistency::Sc)
                },
            ),
            (
                "M",
                ProtocolConfig {
                    migratory: true,
                    ..ProtocolConfig::basic(Consistency::Sc)
                },
            ),
        ];
        for (label, cfg) in variants {
            let m = run(cfg, &w);
            println!(
                "{:10} {:11}  {:10}  {:14}  {:11}",
                app.name(),
                label,
                m.exec_cycles,
                m.ownership_reqs,
                m.stalls.write
            );
        }
    }

    // --- Ablation 4: write-cache size -----------------------------------
    println!("\nAblation: write-cache capacity (paper: 'four blocks is very effective')");
    println!("app        wc-blocks  exec(pclk)  update-reqs  net-bytes");
    for blocks in [1usize, 2, 4, 8, 16] {
        let w = workload(App::Water);
        let mut timing = dirext_memsys::Timing::paper_default();
        timing.write_cache_blocks = blocks;
        let cfg = MachineConfig::paper_default(competitive_cfg(1, true)).with_timing(timing);
        let m = Machine::new(cfg).run(&w).expect("run");
        println!(
            "{:10} {:9}  {:10}  {:11}  {:9}",
            "Water", blocks, m.exec_cycles, m.update_reqs, m.net_bytes
        );
    }
}
