//! Regenerates every table and figure of the paper.
//!
//! ```text
//! reproduce [--quick] [--tcp] [--latency-ms N] [--no-metrics] <artifact>...
//! artifacts: table1 table2 table3 table4 table5 table6 table7 table8
//!            table9 figure3 figure4 optimal tables figures all
//! ```
//!
//! After the artifacts run, the per-stage metrics the instrumented
//! pipeline recorded (hits by representation, p50/p99 per stage) are
//! printed; suppress with `--no-metrics`.

use wsrc_bench::figures::{render_figure, run_figure, speedups_at_full_hit, FigureConfig};
use wsrc_bench::obs_report;
use wsrc_bench::tables;
use wsrc_bench::timing::Protocol;
use wsrc_portal::scenario::TransportMode;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let tcp = args.iter().any(|a| a == "--tcp");
    let no_metrics = args.iter().any(|a| a == "--no-metrics");
    let latency_ms: u64 = args
        .iter()
        .filter_map(|a| a.strip_prefix("--latency-ms="))
        .chain(
            args.windows(2)
                .filter(|w| w[0] == "--latency-ms")
                .map(|w| w[1].as_str()),
        )
        .find_map(|v| v.parse().ok())
        .unwrap_or(0);
    let mut artifacts: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    // Drop the value of a space-separated --latency-ms.
    if let Some(pos) = args.iter().position(|a| a == "--latency-ms") {
        if let Some(v) = args.get(pos + 1) {
            artifacts.retain(|a| *a != v.as_str());
        }
    }
    if artifacts.is_empty() {
        artifacts.push("all");
    }
    let protocol = if quick {
        Protocol::quick()
    } else {
        Protocol::paper()
    };
    let figure_requests = if quick { 300 } else { 3000 };
    let transport = if tcp {
        TransportMode::Tcp
    } else {
        TransportMode::InProcess
    };

    let expanded: Vec<&str> = artifacts
        .iter()
        .flat_map(|a| match *a {
            "all" => vec![
                "table1", "table2", "table3", "table4", "table5", "table6", "table7", "table8",
                "table9", "optimal", "ablation", "figure3", "figure4",
            ],
            "tables" => vec![
                "table1", "table2", "table3", "table4", "table5", "table6", "table7", "table8",
                "table9",
            ],
            "figures" => vec!["figure3", "figure4"],
            other => vec![other],
        })
        .collect();

    for artifact in expanded {
        match artifact {
            "table1" => println!("{}", tables::table1()),
            "table2" => println!("{}", tables::table2()),
            "table3" => println!("{}", tables::table3()),
            "table4" => println!("{}", tables::table4()),
            "table5" => println!("{}", tables::table5()),
            "table6" => {
                eprintln!(
                    "measuring table 6 ({} + {} iterations per cell)…",
                    protocol.warmup, protocol.measured
                );
                println!("{}", tables::table6(protocol));
            }
            "table7" => {
                eprintln!(
                    "measuring table 7 ({} + {} iterations per cell)…",
                    protocol.warmup, protocol.measured
                );
                println!("{}", tables::table7(protocol));
            }
            "table8" => println!("{}", tables::table8()),
            "table9" => println!("{}", tables::table9()),
            "optimal" => println!("{}", tables::optimal_configuration()),
            "ablation" => {
                eprintln!("measuring store-vs-hit ablation…");
                println!("{}", tables::ablation_store_vs_retrieve(protocol));
            }
            "keys" => println!("{}", tables::tostring_keys()),
            "figure3" | "figure4" => {
                let (title, mut config) = if artifact == "figure3" {
                    (
                        "Figure 3 (no concurrent access)",
                        FigureConfig::figure3(figure_requests),
                    )
                } else {
                    (
                        "Figure 4 (25 concurrent accesses)",
                        FigureConfig::figure4(figure_requests),
                    )
                };
                config.transport = transport;
                config.backend_latency = std::time::Duration::from_millis(latency_ms);
                eprintln!(
                    "running {title}: 6 representations x {} ratios x {} requests…",
                    config.hit_ratios.len(),
                    config.requests
                );
                let series = run_figure(&config);
                println!("{}", render_figure(title, &series));
                println!("Speedups at 100% vs 0% cache-hit ratio:");
                for (repr, tput, lat) in speedups_at_full_hit(&series) {
                    println!(
                        "  {:<22} throughput x{:.2}   response time x{:.2}",
                        repr.label(),
                        tput,
                        lat
                    );
                }
                println!();
            }
            other => {
                eprintln!("unknown artifact '{other}'");
                std::process::exit(2);
            }
        }
    }

    if !no_metrics {
        let snapshot = wsrc_obs::global().snapshot();
        println!("{}", obs_report::summary_tables(&snapshot));
    }
}
