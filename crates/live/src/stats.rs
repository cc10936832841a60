//! Live-index statistics: the data behind `free segments [--json]`.

use free_corpus::DocId;
use free_trace::json::JsonObject;

/// Per-segment statistics.
#[derive(Clone, Debug)]
pub struct SegmentStats {
    /// Segment id.
    pub id: u64,
    /// Stored documents (including tombstoned).
    pub num_docs: u32,
    /// Stored documents not tombstoned.
    pub live_docs: usize,
    /// Smallest sequence number.
    pub first_seq: DocId,
    /// Largest sequence number.
    pub last_seq: DocId,
    /// Stored document bytes.
    pub data_bytes: u64,
    /// Keys in the segment's mined index.
    pub index_keys: usize,
}

/// A snapshot of the whole live index's shape.
#[derive(Clone, Debug, Default)]
pub struct LiveStats {
    /// Mutation counter (bumps on add/delete/flush/compact).
    pub generation: u64,
    /// Next sequence number to assign.
    pub next_seq: DocId,
    /// Sealed segments in sequence order.
    pub segments: Vec<SegmentStats>,
    /// Documents in the write buffer (including tombstoned).
    pub memtable_docs: usize,
    /// Write-buffer document bytes.
    pub memtable_bytes: u64,
    /// Tombstones not yet eliminated by compaction.
    pub tombstones: usize,
    /// Live (queryable) documents across segments and buffer.
    pub live_docs: usize,
    /// Total stored document bytes (segments + buffer).
    pub total_bytes: u64,
}

impl LiveStats {
    /// Renders as a JSON object (hand-rolled; no dependencies).
    pub fn to_json(&self) -> String {
        let segments = self
            .segments
            .iter()
            .map(|s| {
                let mut o = JsonObject::new();
                o.field_u64("id", s.id)
                    .field_u64("num_docs", u64::from(s.num_docs))
                    .field_u64("live_docs", s.live_docs as u64)
                    .field_u64("first_seq", u64::from(s.first_seq))
                    .field_u64("last_seq", u64::from(s.last_seq))
                    .field_u64("data_bytes", s.data_bytes)
                    .field_u64("index_keys", s.index_keys as u64);
                o.finish()
            })
            .collect::<Vec<_>>()
            .join(",");
        let mut o = JsonObject::new();
        o.field_u64("generation", self.generation)
            .field_u64("next_seq", u64::from(self.next_seq))
            .field_u64("num_segments", self.segments.len() as u64)
            .field_raw("segments", format!("[{segments}]"))
            .field_u64("memtable_docs", self.memtable_docs as u64)
            .field_u64("memtable_bytes", self.memtable_bytes)
            .field_u64("tombstones", self.tombstones as u64)
            .field_u64("live_docs", self.live_docs as u64)
            .field_u64("total_bytes", self.total_bytes);
        o.finish()
    }

    /// Renders for terminal consumption.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "generation {}  next_seq {}  live docs {}  tombstones {}  total bytes {}\n",
            self.generation, self.next_seq, self.live_docs, self.tombstones, self.total_bytes
        ));
        out.push_str(&format!(
            "write buffer: {} doc(s), {} byte(s)\n",
            self.memtable_docs, self.memtable_bytes
        ));
        if self.segments.is_empty() {
            out.push_str("no sealed segments\n");
        } else {
            out.push_str(&format!("{} sealed segment(s):\n", self.segments.len()));
            for s in &self.segments {
                out.push_str(&format!(
                    "  seg-{}: docs {} (live {}), seqs {}..={}, {} bytes, {} keys\n",
                    s.id,
                    s.num_docs,
                    s.live_docs,
                    s.first_seq,
                    s.last_seq,
                    s.data_bytes,
                    s.index_keys
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_and_human_render() {
        let stats = LiveStats {
            generation: 4,
            next_seq: 11,
            segments: vec![SegmentStats {
                id: 0,
                num_docs: 10,
                live_docs: 9,
                first_seq: 0,
                last_seq: 9,
                data_bytes: 250,
                index_keys: 12,
            }],
            memtable_docs: 1,
            memtable_bytes: 30,
            tombstones: 1,
            live_docs: 10,
            total_bytes: 280,
        };
        let json = stats.to_json();
        assert!(json.contains("\"num_segments\":1"), "{json}");
        assert!(json.contains("\"segments\":[{"), "{json}");
        let human = stats.render_human();
        assert!(human.contains("seg-0"), "{human}");
    }
}
