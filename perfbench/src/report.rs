//! The run's result: verification counts plus named metrics, printed as one
//! JSON line.

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`, or `""` for a count that has no direction.
    pub better: &'static str,
    /// How many samples the value summarises.
    pub samples: usize,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (requests, reloads or jobs).
    pub attempted: u64,
    /// Operations that failed or did not verify.
    pub failed: u64,
    /// Verification failures, one line each.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        better: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            better,
            samples,
        });
    }

    /// Records a failed verification.
    pub fn fail(&mut self, message: String) {
        self.errors.push(message);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    /// Prints the verification errors and one human-readable line per
    /// metric, then the JSON result as the last line.
    pub fn print(&self) {
        for error in &self.errors {
            println!("error {error}");
        }
        for m in &self.metrics {
            println!(
                "metric {:<28} {:>14.6} {:<6} better={:<6} samples={}",
                m.name,
                m.value,
                m.unit,
                if m.better.is_empty() { "-" } else { m.better },
                m.samples
            );
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// JSON has no NaN or infinity; a metric that could not be measured
/// prints as 0.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// Every per-layer metric with its unit, in report order. A traced run
/// reports all of them; a layer its workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("http.read_us", "us"),
    ("api.decode_us", "us"),
    ("api.to_matrix_us", "us"),
    ("registry.features_us", "us"),
    ("registry.assign_us", "us"),
    ("api.encode_us", "us"),
    ("server.route_us", "us"),
    ("http.write_us", "us"),
    ("net.transport_us", "us"),
    ("router.hop_us", "us"),
    ("router.retried_frac", "ratio"),
    ("router.unrouted", "count"),
    ("router.reload_ms", "ms"),
    ("live.reload_ms", "ms"),
    ("artifact.load_ms", "ms"),
    ("api.request_bytes", "bytes"),
    ("http.connections_opened", "count"),
    ("datasets.ingest_s", "s"),
    ("core.preprocess_s", "s"),
    ("clustering.dp_s", "s"),
    ("clustering.kmeans_s", "s"),
    ("clustering.ap_s", "s"),
    ("consensus.align_vote_s", "s"),
    ("consensus.coverage", "ratio"),
    ("clustering.ap_exemplars", "count"),
    ("clustering.ap_iterations", "count"),
    ("core.epoch_s", "s"),
    ("core.sls_train_s", "s"),
    ("core.export_s", "s"),
    ("host.calib_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.unattributed_frac", "ratio"),
];

impl Outcome {
    /// Puts the metrics of a traced run in [`PER_LAYER`] order, adding the
    /// layers the workload does not run as 0.
    pub fn complete_layers(&mut self) {
        let mut measured = std::mem::take(&mut self.metrics);
        for &(name, unit) in PER_LAYER {
            match measured.iter().position(|m| m.name == name) {
                Some(at) => {
                    let metric = measured.remove(at);
                    assert_eq!(metric.unit, unit, "unit of {name}");
                    self.metrics.push(metric);
                }
                None => self.metric(name, 0.0, unit, "", 0),
            }
        }
        assert!(
            measured.is_empty(),
            "unlisted per-layer metric {}",
            measured[0].name
        );
    }
}
