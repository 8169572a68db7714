//! Message journeys: per-destination delivery skew across the paper's
//! contention spectrum. One recorded 48-core broadcast per scenario —
//! the flat-tree extreme (k=47) that saturates the root port, the
//! paper's default operating point (k=7), and the binomial baseline —
//! reconstructed into a [`JourneyBook`] whose per-destination leg
//! dwells partition each delivery latency *exactly* (integer
//! picoseconds; re-checked as a shape claim on every run).
//!
//! The finalize step derives the skew rows, the versioned
//! `BENCH_journeys.json` artifact and one link-congestion movie per
//! scenario (`results/movie_<id>.txt`) from the same books.

use super::{outln, Point, Sweep};
use crate::{record_run, Scenario};
use oc_bcast::Algorithm;
use scc_hal::Time;
use scc_obs::{artifact, CongestionMovie, JourneyBook, SkewReport};
use scc_sim::{SimError, SimParams};

/// Frames per congestion movie: enough to see the root-column burst
/// travel without drowning the text artifact.
const MOVIE_FRAMES: usize = 8;

/// One recorded scenario; the stable id names the movie artifact.
struct Journeys(&'static str, Scenario);

impl Point for Journeys {
    fn key(&self) -> String {
        format!("journeys {}", self.0)
    }
    fn cost(&self) -> u64 {
        self.1.lines as u64
    }
}

/// The scenario's journey book, its skew digest and its rendered
/// congestion movie; a book without journeys is an error.
fn trace(Journeys(_, sc): &Journeys) -> Result<(JourneyBook, SkewReport, String), SimError> {
    let (events, _makespan) = record_run(sc, SimParams::default())?;
    let movie = CongestionMovie::from_events(&events, MOVIE_FRAMES).render(&sc.label);
    let book = JourneyBook::from_events(&events);
    let skew = SkewReport::from_book(&sc.label, &book)
        .ok_or_else(|| SimError::Engine(format!("{}: no journeys", sc.label)))?;
    Ok((book, skew, movie))
}

pub(super) fn plan(quick: bool) -> Sweep {
    let lines = if quick { 32 } else { 96 };
    let scenarios = vec![
        Journeys("oc_k47", Scenario::new(Algorithm::oc_with_k(47), 48, lines)),
        Journeys("oc_k7", Scenario::new(Algorithm::oc_with_k(7), 48, lines)),
        Journeys("binomial", Scenario::new(Algorithm::Binomial, 48, lines)),
    ];
    Sweep::points(scenarios, trace, move |ctx, pairs| {
        outln!(
            ctx,
            "# per-destination delivery skew, 48-core broadcasts ({lines} cache lines from C0)"
        );
        let mut books: Vec<(String, JourneyBook)> = Vec::new();
        for (Journeys(id, sc), (book, skew, movie)) in pairs {
            // The exactness invariants this module exists to guard.
            let conserved = book.journeys.iter().all(|j| j.legs_total() == j.latency());
            ctx.shape(
                &format!("{id}: leg dwells partition every delivery latency"),
                conserved,
                format!("{} journeys, integer-ps conservation", book.journeys.len()),
            );
            let last = book.journeys.iter().map(|j| j.end).max().unwrap_or(Time::ZERO);
            ctx.shape(
                &format!("{id}: last delivery closes the makespan"),
                last == book.makespan,
                format!(
                    "last delivery {:.3} us, makespan {:.3} us",
                    last.as_us_f64(),
                    book.makespan.as_us_f64()
                ),
            );
            ctx.shape(
                &format!("{id}: every non-root core completes a journey"),
                book.journeys.len() >= sc.cores - 1,
                format!("{} journeys for {} cores", book.journeys.len(), sc.cores),
            );

            ctx.row(format!("{id} delivery p50"), None, None, skew.p50.as_us_f64(), 0.02, "us");
            ctx.row(format!("{id} delivery p99"), None, None, skew.p99.as_us_f64(), 0.02, "us");
            ctx.row(format!("{id} delivery max"), None, None, skew.max.as_us_f64(), 0.02, "us");
            outln!(
                ctx,
                "{id:<10} {:>4} journeys  p50 {:>9.3}  p99 {:>9.3}  max {:>9.3} us  \
                 straggler C{} ({})",
                skew.count,
                skew.p50.as_us_f64(),
                skew.p99.as_us_f64(),
                skew.max.as_us_f64(),
                skew.straggler.core.index(),
                skew.dominant_leg().map_or("matches median".to_string(), |(k, d)| format!(
                    "{} +{:.3} us",
                    k.name(),
                    d.as_us_f64()
                )),
            );

            ctx.artifact(format!("results/movie_{id}.txt"), movie);
            books.push((id.to_string(), book));
        }
        outln!(ctx, "# every scenario: leg dwells sum exactly to delivery latency (integer ps)");
        ctx.artifact("BENCH_journeys.json", artifact::scenarios("journeys", &books).render());
    })
}
