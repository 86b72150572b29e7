//! Run results: a readable report, then the one-line JSON result as the
//! last line of standard output.

/// Ops of one direction.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpCounts {
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
}

impl OpCounts {
    pub fn add(&mut self, ok: bool) {
        self.attempted += 1;
        if ok {
            self.succeeded += 1;
        } else {
            self.failed += 1;
        }
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run prints.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub encode: OpCounts,
    pub decode: OpCounts,
    /// The metrics of the result line, in print order.
    pub metrics: Vec<Metric>,
    /// Report-only lines: host record, p99s, per-span breakdowns.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Print the report and the result line.
    ///
    /// # Errors
    /// A metric that is not a finite number (never a valid result).
    pub fn print(&self, title: &str) -> Result<(), String> {
        if let Some(m) = self.metrics.iter().find(|m| !m.value.is_finite()) {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        println!("{title}");
        for (dir, c) in [("encode", self.encode), ("decode", self.decode)] {
            println!(
                "  ops {dir:<6} attempted {} succeeded {} failed {}",
                c.attempted, c.succeeded, c.failed
            );
        }
        for n in &self.notes {
            println!("  {n}");
        }
        for m in &self.metrics {
            println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.encode.attempted + self.decode.attempted,
            self.encode.failed + self.decode.failed,
            metrics.join(", ")
        );
        Ok(())
    }
}
