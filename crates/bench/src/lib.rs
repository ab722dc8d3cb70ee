#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Reproduces every table and figure of the paper.
//!
//! - [`fixtures`] — the three Google operations' requests and responses,
//!   produced through the real service + SOAP pipeline.
//! - [`timing`] — the paper's measurement protocol (§5.1: 10,000 warmup
//!   iterations, then 10,000 measured).
//! - [`tables`] — Tables 1–9 as printable text tables.
//! - [`figures`] — the Figure 3/4 portal sweeps.
//! - [`trace_smoke`] — a deterministic end-to-end check of the span tree.
//!
//! Performance numbers come from the `benchmark/` package at the root of
//! the repository, not from this crate.
//!
//! Run everything with the `reproduce` binary:
//!
//! ```text
//! cargo run --release -p wsrc-bench --bin reproduce -- all
//! ```

pub mod figures;
pub mod fixtures;
pub mod obs_report;
pub mod tables;
pub mod timing;
pub mod trace_smoke;

/// Renders a text table with a header row, aligning columns.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i >= widths.len() {
                widths.push(cell.len());
            } else {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let line = |out: &mut String| {
        for w in &widths {
            out.push('+');
            out.push_str(&"-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    line(&mut out);
    out.push('|');
    for (h, w) in header.iter().zip(&widths) {
        out.push_str(&format!(" {h:<w$} |"));
    }
    out.push('\n');
    line(&mut out);
    for row in rows {
        out.push('|');
        for (cell, w) in row.iter().zip(&widths) {
            out.push_str(&format!(" {cell:<w$} |"));
        }
        out.push('\n');
    }
    line(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_table_aligns_columns() {
        let t = render_table(
            "T",
            &["a", "column"],
            &[vec!["xx".into(), "y".into()], vec!["1".into(), "22".into()]],
        );
        assert!(t.contains("| a  | column |"));
        assert!(t.contains("| xx | y      |"));
        assert!(t
            .lines()
            .all(|l| l.len() == t.lines().nth(1).unwrap().len() || l == "T"));
    }
}
