//! `/proc/pressure`-style text rendering.
//!
//! Renders a [`PsiSnapshot`] in the exact format of the kernel's
//! pressure files, which is also the interface Senpai consumes in
//! production:
//!
//! ```text
//! some avg10=0.22 avg60=0.17 avg300=1.11 total=58761459
//! full avg10=0.00 avg60=0.13 avg300=0.96 total=57651003
//! ```

use crate::group::PsiSnapshot;

/// Renders one resource's pressure state as the two-line pressure-file
/// format (`total` in microseconds, averages as percentages).
///
/// # Example
///
/// ```
/// use tmo_psi::{PsiGroup, Resource, render_pressure_file};
///
/// let psi = PsiGroup::new(4);
/// let text = render_pressure_file(&psi.snapshot(Resource::Memory));
/// assert!(text.starts_with("some avg10=0.00"));
/// assert!(text.lines().nth(1).expect("two lines").starts_with("full"));
/// ```
pub fn render_pressure_file(snap: &PsiSnapshot) -> String {
    format!(
        "some avg10={:.2} avg60={:.2} avg300={:.2} total={}\n\
         full avg10={:.2} avg60={:.2} avg300={:.2} total={}\n",
        snap.some_avg10 * 100.0,
        snap.some_avg60 * 100.0,
        snap.some_avg300 * 100.0,
        snap.some_total.as_micros(),
        snap.full_avg10 * 100.0,
        snap.full_avg60 * 100.0,
        snap.full_avg300 * 100.0,
        snap.full_total.as_micros(),
    )
}

/// Parses a pressure-file line back into `(avg10, avg60, avg300,
/// total_us)` ratios; the inverse of [`render_pressure_file`] for one
/// line. Returns `None` on malformed input: a first token other than
/// `some` or `full`, a key that is missing, repeated or unknown, or an
/// average that is not a finite percentage in `0..=100`.
pub fn parse_pressure_line(line: &str) -> Option<(f64, f64, f64, u64)> {
    let mut fields = line.split_whitespace();
    if !matches!(fields.next(), Some("some" | "full")) {
        return None;
    }
    let mut avgs = [None; 3];
    let mut total = None;
    for field in fields {
        let (key, value) = field.split_once('=')?;
        let slot = match key {
            "avg10" => &mut avgs[0],
            "avg60" => &mut avgs[1],
            "avg300" => &mut avgs[2],
            "total" => {
                if total.replace(value.parse::<u64>().ok()?).is_some() {
                    return None;
                }
                continue;
            }
            _ => return None,
        };
        let pct = value.parse::<f64>().ok()?;
        if !(0.0..=100.0).contains(&pct) || slot.replace(pct / 100.0).is_some() {
            return None;
        }
    }
    Some((avgs[0]?, avgs[1]?, avgs[2]?, total?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{PsiGroup, Resource, TaskObservation};
    use crate::intervals::IntervalSet;
    use tmo_sim::SimDuration;

    #[test]
    fn render_zero_pressure() {
        let psi = PsiGroup::new(1);
        let text = render_pressure_file(&psi.snapshot(Resource::Io));
        assert_eq!(
            text,
            "some avg10=0.00 avg60=0.00 avg300=0.00 total=0\n\
             full avg10=0.00 avg60=0.00 avg300=0.00 total=0\n"
        );
    }

    #[test]
    fn render_and_parse_round_trip() {
        let mut psi = PsiGroup::new(1);
        let mut t = TaskObservation::non_idle();
        t.stall(
            Resource::Memory,
            IntervalSet::from_spans(&[(0, 500_000_000)]),
        );
        psi.observe(SimDuration::from_secs(1), &[t]);
        let snap = psi.snapshot(Resource::Memory);
        let text = render_pressure_file(&snap);
        let some_line = text.lines().next().expect("some line");
        let (a10, _a60, _a300, total) = parse_pressure_line(some_line).expect("parses");
        assert!((a10 - snap.some_avg10).abs() < 1e-3);
        assert_eq!(total, 500_000);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse_pressure_line("garbage").is_none());
        assert!(parse_pressure_line("some avg10=x avg60=0 avg300=0 total=0").is_none());
        assert!(parse_pressure_line("some avg10=1.0 bogus=2").is_none());
        for line in [
            "bogus avg10=NaN avg60=inf avg300=-1 total=0",
            "bogus avg10=0.00 avg60=0.00 avg300=0.00 total=0",
            "avg10=0.00 avg60=0.00 avg300=0.00 total=0",
            "some avg10=NaN avg60=0.00 avg300=0.00 total=0",
            "some avg10=0.00 avg60=inf avg300=0.00 total=0",
            "full avg10=0.00 avg60=0.00 avg300=-1 total=0",
            "some avg10=100.01 avg60=0.00 avg300=0.00 total=0",
            "some avg10=1.00 avg10=2.00 avg60=0.00 avg300=0.00 total=0",
            "some avg10=1.00 avg60=0.00 avg300=0.00 total=5 total=5",
            "some avg10=1.00 avg60=0.00 total=0",
            "some avg10=1.00 avg60=0.00 avg300=0.00",
            "",
        ] {
            assert!(parse_pressure_line(line).is_none(), "accepted {line:?}");
        }
        assert_eq!(
            parse_pressure_line("full avg10=100.00 avg60=0.00 avg300=50.00 total=7"),
            Some((1.0, 0.0, 0.5, 7))
        );
    }
}
