//! Per-server memory accounting.
//!
//! The engines do not allocate the paper-scale arrays; they *account* for what a
//! server would hold (vertex state arrays, message buffers, resident tiles, cache
//! contents) so Figure 1a / Figure 6b style numbers can be reported and so the edge
//! cache knows how much idle memory it may use.

/// Tracks current and peak memory use of one simulated server, against a capacity.
#[derive(Debug, Clone)]
pub struct MemoryTracker {
    capacity: u64,
    current: u64,
    peak: u64,
    /// Named components (e.g. "vertex-states", "messages", "edge-cache") for reporting.
    components: Vec<(String, u64)>,
}

impl MemoryTracker {
    /// A tracker with the given capacity in bytes.
    pub fn new(capacity: u64) -> Self {
        Self {
            capacity,
            current: 0,
            peak: 0,
            components: Vec::new(),
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Currently accounted bytes.
    pub fn current(&self) -> u64 {
        self.current
    }

    /// Peak accounted bytes.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Bytes still free before hitting capacity (0 if over).
    pub fn available(&self) -> u64 {
        self.capacity.saturating_sub(self.current)
    }

    /// Register a named long-lived component (replacing any previous registration of
    /// the same name).
    pub fn set_component(&mut self, name: &str, bytes: u64) {
        if let Some(entry) = self.components.iter_mut().find(|(n, _)| n == name) {
            self.current = self.current - entry.1 + bytes;
            entry.1 = bytes;
        } else {
            self.components.push((name.to_string(), bytes));
            self.current += bytes;
        }
        self.peak = self.peak.max(self.current);
    }

    /// Bytes registered under `name` (0 if absent).
    pub fn component(&self, name: &str) -> u64 {
        self.components
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, b)| *b)
    }

    /// Temporarily account `bytes` (e.g. a tile resident during processing), run `f`,
    /// then release. Peak still reflects the transient usage.
    pub fn with_transient<T>(&mut self, bytes: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        self.current += bytes;
        self.peak = self.peak.max(self.current);
        let out = f(self);
        self.current -= bytes;
        out
    }

    /// All named components and their sizes.
    pub fn components(&self) -> &[(String, u64)] {
        &self.components
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_replace_not_double_count() {
        let mut t = MemoryTracker::new(1000);
        t.set_component("vertex-states", 100);
        t.set_component("messages", 50);
        assert_eq!(t.current(), 150);
        t.set_component("vertex-states", 300);
        assert_eq!(t.current(), 350);
        assert_eq!(t.component("vertex-states"), 300);
        assert_eq!(t.component("missing"), 0);
        assert_eq!(t.peak(), 350);
        assert_eq!(t.available(), 650);
    }

    #[test]
    fn transient_usage_raises_peak_only() {
        let mut t = MemoryTracker::new(1000);
        t.set_component("base", 200);
        let result = t.with_transient(500, |inner| inner.current());
        assert_eq!(result, 700);
        assert_eq!(t.current(), 200);
        assert_eq!(t.peak(), 700);
    }

    #[test]
    fn nothing_is_available_over_capacity() {
        let mut t = MemoryTracker::new(100);
        t.set_component("big", 150);
        assert_eq!(t.available(), 0);
    }

    #[test]
    fn shrinking_component_reduces_current_but_not_peak() {
        let mut t = MemoryTracker::new(1000);
        t.set_component("cache", 800);
        t.set_component("cache", 100);
        assert_eq!(t.current(), 100);
        assert_eq!(t.peak(), 800);
    }
}
