//! Figures 3–4's cells over the real in-process stack. A binary of its
//! own, so its callers do not share the CPU with the library's timed
//! table tests.

use std::time::Duration;
use wsrc_bench::figures::{
    render_figure, run_cell, run_figure, speedups_at_full_hit, HIT_RATIOS, HOT_QUERIES,
};
use wsrc_cache::ValueRepresentation;

#[test]
fn figure_runs_all_series_and_renders() {
    let series = run_figure(2, 120, Duration::ZERO);
    assert_eq!(series.len(), 6);
    for (form, cells) in &series {
        assert_eq!(cells.len(), HIT_RATIOS.len());
        assert!(cells.iter().all(|c| c.errors == 0), "{form}");
    }
    let text = render_figure("Figure (test)", &series);
    assert!(text.contains("throughput"));
    assert!(text.contains("Pass by reference"));
    assert!(text.contains("0%") && text.contains("100%"));
    let speedups = speedups_at_full_hit(&series);
    assert_eq!(speedups.len(), 6);
    let (_, object, _) = speedups
        .iter()
        .find(|(form, _, _)| *form == ValueRepresentation::CloneCopy)
        .unwrap();
    assert!(
        *object > 1.0,
        "object caching at 100 % vs 0 %: x{object:.2}"
    );
}

/// Hot queries are primed and unique ones never repeat, so a cell's
/// traffic is a function of n, h and k alone, however many callers
/// interleave: ⌊n·h⌋ hits, and k + n − ⌊n·h⌋ back-end calls.
#[test]
fn a_cells_hits_and_back_end_calls_are_exact() {
    let n = 200;
    for callers in [1, 25] {
        for form in ValueRepresentation::ALL {
            for h in [0.0, 0.6, 1.0] {
                let cell = run_cell(form, h, callers, n, Duration::ZERO);
                let hot = (n as f64 * h) as usize;
                let at = format!("{form} at {h} with {callers} callers");
                assert_eq!((cell.completed, cell.errors), (n, 0), "{at}");
                assert_eq!(cell.hits, hot as u64, "{at}");
                assert_eq!(cell.hit_ratio(), hot as f64 / n as f64, "{at}");
                assert_eq!(cell.backend_calls, (HOT_QUERIES + n - hot) as u64, "{at}");
            }
        }
    }
}

/// The core Figure 3 claim, loose enough for a shared host: at 100 %
/// hits an application object is no slower than re-parsing XML.
#[test]
fn object_caching_is_no_slower_than_xml_at_full_hit_ratio() {
    let full = |form| run_cell(form, 1.0, 1, 1500, Duration::ZERO).mean_response;
    let (xml, object) = (
        full(ValueRepresentation::XmlMessage),
        full(ValueRepresentation::CloneCopy),
    );
    assert!(object <= xml, "object {object:?}, XML {xml:?}");
}
