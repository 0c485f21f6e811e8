//! Property tests for the observability primitives: quantile error
//! bounds and exposition stability.

use kosha_obs::{Histogram, Registry};
use proptest::prelude::*;

fn hist_of(samples: &[u64]) -> Histogram {
    let h = Histogram::new();
    for &s in samples {
        h.record(s);
    }
    h
}

fn arb_samples() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), 0..64)
}

proptest! {
    // Quantile estimates bound the true sample quantile from above and
    // stay within one sub-bucket width (1/16 relative, +1 for the
    // integer boundary) of it.
    #[test]
    fn quantiles_bound_true_sample_quantiles(
        mut samples in proptest::collection::vec(any::<u64>(), 1..64),
        qs in proptest::collection::vec(0u32..=1000, 1..6),
    ) {
        let h = hist_of(&samples);
        samples.sort_unstable();
        for q in qs.into_iter().map(|m| f64::from(m) / 1000.0) {
            let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
            let truth = samples[rank - 1];
            let est = h.quantile(q);
            prop_assert!(est >= truth, "q={} est={} truth={}", q, est, truth);
            prop_assert!(
                est as f64 <= truth as f64 * (1.0 + 1.0 / 16.0) + 1.0,
                "q={} est={} truth={}", q, est, truth
            );
        }
    }

    // count/sum/max always agree with the recorded stream.
    #[test]
    fn totals_match_the_stream(samples in arb_samples()) {
        let h = hist_of(&samples);
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.sum(), samples.iter().fold(0u64, |a, &b| a.wrapping_add(b)));
        prop_assert_eq!(h.max(), samples.iter().copied().max().unwrap_or(0));
    }

    // The text exposition is deterministic (two renders agree) and every
    // sample line parses as `name[{labels}] <integer>`.
    #[test]
    fn exposition_is_stable_and_parseable(
        counters in proptest::collection::vec(("[a-z]{1,12}", any::<u32>()), 0..6),
        gauges in proptest::collection::vec(("[a-z]{1,12}", any::<i32>()), 0..6),
        hist_samples in arb_samples(),
    ) {
        let r = Registry::new();
        for (stem, v) in &counters {
            r.counter(&format!("{stem}_total")).add(u64::from(*v));
        }
        for (stem, v) in &gauges {
            r.gauge(&format!("{stem}_now")).set(i64::from(*v));
        }
        let h = r.histogram("lat_nanos{service=\"test\"}");
        for &s in &hist_samples {
            h.record(s);
        }

        let text = r.render();
        prop_assert_eq!(&text, &r.render(), "render is not deterministic");
        prop_assert_eq!(r.json().to_string(), r.json().to_string(), "json is not deterministic");

        for line in text.lines() {
            if line.starts_with('#') {
                let mut parts = line.split_whitespace();
                prop_assert_eq!(parts.next(), Some("#"));
                prop_assert_eq!(parts.next(), Some("TYPE"));
                prop_assert!(parts.next().is_some(), "TYPE line missing name: {}", line);
                let kind = parts.next();
                prop_assert!(
                    matches!(kind, Some("counter" | "gauge" | "summary")),
                    "bad kind in {}", line
                );
                continue;
            }
            // Sample line: name (with optional {labels}) SPACE value.
            let split = line.rsplit_once(' ');
            prop_assert!(split.is_some(), "unsplittable line: {}", line);
            let (name, value) = split.unwrap();
            prop_assert!(!name.is_empty(), "empty metric name: {}", line);
            prop_assert!(
                value.parse::<i64>().is_ok() || value.parse::<u64>().is_ok(),
                "non-integer value {} in {}", value, line
            );
            if let Some(i) = name.find('{') {
                prop_assert!(name.ends_with('}'), "unterminated labels: {}", line);
                prop_assert!(i > 0, "label-only name: {}", line);
            }
        }

        // Registered names all surface in the exposition.
        for name in r.names() {
            let base = name.split('{').next().unwrap();
            prop_assert!(text.contains(base), "{} missing from exposition", base);
        }
    }
}
