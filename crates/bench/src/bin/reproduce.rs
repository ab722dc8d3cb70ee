//! Regenerates every table and figure of the paper.
//!
//! ```text
//! reproduce [--quick] [--latency-ms N] <artifact>...
//! artifacts: table1 table2 table3 table4 table5 table6 table7 table8
//!            table9 figure3 figure4 optimal ablation keys tables
//!            figures all
//! ```
//!
//! An unknown option or artifact exits 2 with the usage line.

use std::time::Duration;
use wsrc_bench::figures::{render_figure, run_figure, speedups_at_full_hit};
use wsrc_bench::tables;
use wsrc_bench::timing::Protocol;

const USAGE: &str = "usage: reproduce [--quick] [--latency-ms N] <artifact>...
artifacts: table1 table2 table3 table4 table5 table6 table7 table8 table9
           figure3 figure4 optimal ablation keys tables figures all";

fn usage_error(message: &str) -> ! {
    eprintln!("{message}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut latency_ms: u64 = 0;
    let mut artifacts: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let latency = if arg == "--quick" {
            quick = true;
            continue;
        } else if arg == "--latency-ms" {
            args.next()
        } else if let Some(value) = arg.strip_prefix("--latency-ms=") {
            Some(value.to_string())
        } else if arg.starts_with("--") {
            usage_error(&format!("unknown option '{arg}'"))
        } else {
            artifacts.push(arg);
            continue;
        };
        latency_ms = latency
            .and_then(|value| value.parse().ok())
            .unwrap_or_else(|| usage_error("--latency-ms takes a whole number of milliseconds"));
    }
    if artifacts.is_empty() {
        artifacts.push("all".to_string());
    }
    let protocol = if quick {
        Protocol::quick()
    } else {
        Protocol::paper()
    };
    let figure_requests = if quick { 60 } else { 3000 };
    let backend_latency = Duration::from_millis(latency_ms);

    let expanded: Vec<&str> = artifacts
        .iter()
        .flat_map(|a| match a.as_str() {
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
                let (title, callers) = if artifact == "figure3" {
                    ("Figure 3 (no concurrent access)", 1)
                } else {
                    ("Figure 4 (25 concurrent accesses)", 25)
                };
                eprintln!(
                    "running {title}: 6 representations x 6 ratios x {figure_requests} requests…"
                );
                let series = run_figure(callers, figure_requests, backend_latency);
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
            other => usage_error(&format!("unknown artifact '{other}'")),
        }
    }
}
