//! Section 3.3's mesh-contention experiment: load the (2,2)–(3,2) link
//! with traffic from every other core and measure whether a probe get
//! across that link slows down. The paper found no measurable drop —
//! "at the current scale, the network cannot be a source of
//! contention."

use super::{outln, Point, Sweep};
use crate::paper_chip;
use scc_sim::measure_link_stress;

/// One probe size in cache lines: one unit measuring `(loaded, idle)`.
struct Probe(usize);

impl Point for Probe {
    fn key(&self) -> String {
        format!("probe {}CL", self.0)
    }
}

pub(super) fn plan(_quick: bool) -> Sweep {
    Sweep::points(
        vec![Probe(16), Probe(128)],
        |&Probe(lines)| measure_link_stress(&paper_chip(), lines, 3),
        |ctx, pairs| {
            for (Probe(lines), (loaded, idle)) in pairs {
                let ratio = loaded.as_us_f64() / idle.as_us_f64();
                outln!(
                    ctx,
                    "{lines:>4} CL probe: idle {:>8.3} µs, loaded {:>8.3} µs, ratio {ratio:.4}",
                    idle.as_us_f64(),
                    loaded.as_us_f64()
                );
                ctx.row(format!("probe {lines}CL idle"), None, None, idle.as_us_f64(), 0.02, "us");
                ctx.row(
                    format!("probe {lines}CL loaded"),
                    None,
                    None,
                    loaded.as_us_f64(),
                    0.02,
                    "us",
                );
                ctx.row(format!("probe {lines}CL slowdown"), None, None, ratio, 0.05, "x");
                ctx.shape(
                    &format!("mesh does not contend under core-driven load ({lines} CL probe)"),
                    ratio < 1.05,
                    format!("loaded/idle ratio {ratio:.4}"),
                );
            }
            outln!(ctx, "# no measurable mesh contention — matches Section 3.3");
        },
    )
}
