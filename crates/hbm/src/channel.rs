use crate::HbmConfig;
use serde::{Deserialize, Serialize};

/// One HBM channel holding a scheduled data list.
///
/// A channel stores the raw 64-bit words the scheduler produced for it
/// (packed sparse elements, with `0` denoting a stall slot) and answers
/// traffic questions: how many 512-bit beats the list occupies and how many
/// bytes cross the channel when it is streamed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Channel {
    id: usize,
    data: Vec<u64>,
}

impl Channel {
    /// Creates an empty channel with the given ID.
    pub fn new(id: usize) -> Self {
        Channel {
            id,
            data: Vec::new(),
        }
    }

    /// Creates a channel pre-loaded with a data list.
    pub fn with_data(id: usize, data: Vec<u64>) -> Self {
        Channel { id, data }
    }

    /// Channel ID (index within the HBM stack).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The raw data list.
    pub fn data(&self) -> &[u64] {
        &self.data
    }

    /// Number of 64-bit words in the data list.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the data list is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends a word to the data list.
    pub fn push(&mut self, word: u64) {
        self.data.push(word);
    }

    /// Number of port-width beats needed to stream the list
    /// (`ceil(len / elements_per_beat)`).
    pub fn beats(&self, config: &HbmConfig) -> u64 {
        let per_beat = config.elements_per_beat();
        (self.data.len().div_ceil(per_beat)) as u64
    }

    /// Bytes transferred when the list is streamed (beats are always full
    /// width; a partial final beat still moves `bytes_per_beat`).
    pub fn bytes(&self, config: &HbmConfig) -> u64 {
        self.beats(config) * config.bytes_per_beat() as u64
    }

    /// Iterates the list as full beats, padding the final beat with zeros.
    pub fn beat_stream<'a>(&'a self, config: &HbmConfig) -> BeatStream<'a> {
        BeatStream {
            data: &self.data,
            per_beat: config.elements_per_beat(),
            cursor: 0,
        }
    }
}

/// Iterator over a channel's data list in port-width beats.
///
/// Each item is one beat: exactly `elements_per_beat` 64-bit words, with the
/// final beat zero-padded. Produced by [`Channel::beat_stream`].
#[derive(Debug, Clone)]
pub struct BeatStream<'a> {
    data: &'a [u64],
    per_beat: usize,
    cursor: usize,
}

impl BeatStream<'_> {
    /// Serializes the next beat as little-endian bytes (wire format of the
    /// 512-bit port), or `None` when the stream is exhausted.
    pub fn next_beat_bytes(&mut self) -> Option<Vec<u8>> {
        let beat = self.next()?;
        Some(beat.iter().flat_map(|w| w.to_le_bytes()).collect())
    }
}

impl Iterator for BeatStream<'_> {
    type Item = Vec<u64>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor >= self.data.len() {
            return None;
        }
        let end = (self.cursor + self.per_beat).min(self.data.len());
        let mut beat = self.data[self.cursor..end].to_vec();
        beat.resize(self.per_beat, 0);
        self.cursor = end;
        Some(beat)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = (self.data.len() - self.cursor).div_ceil(self.per_beat);
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for BeatStream<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HbmConfig {
        HbmConfig::alveo_u55c()
    }

    #[test]
    fn empty_channel_has_no_beats() {
        let ch = Channel::new(3);
        assert_eq!(ch.id(), 3);
        assert!(ch.is_empty());
        assert_eq!(ch.beats(&cfg()), 0);
        assert_eq!(ch.bytes(&cfg()), 0);
        assert_eq!(ch.beat_stream(&cfg()).count(), 0);
    }

    #[test]
    fn exact_multiple_fills_all_beats() {
        let ch = Channel::with_data(0, (0..16u64).collect());
        assert_eq!(ch.beats(&cfg()), 2);
        let beats: Vec<_> = ch.beat_stream(&cfg()).collect();
        assert_eq!(beats.len(), 2);
        assert_eq!(beats[0], (0..8u64).collect::<Vec<_>>());
        assert_eq!(beats[1], (8..16u64).collect::<Vec<_>>());
    }

    #[test]
    fn final_beat_is_zero_padded() {
        let ch = Channel::with_data(0, vec![1, 2, 3]);
        let beats: Vec<_> = ch.beat_stream(&cfg()).collect();
        assert_eq!(beats, vec![vec![1, 2, 3, 0, 0, 0, 0, 0]]);
        assert_eq!(ch.bytes(&cfg()), 64, "a partial beat still moves 64 bytes");
    }

    #[test]
    fn beat_stream_is_exact_size() {
        let ch = Channel::with_data(0, (0..20u64).collect());
        let stream = ch.beat_stream(&cfg());
        assert_eq!(stream.len(), 3);
    }

    #[test]
    fn beat_bytes_are_little_endian() {
        let ch = Channel::with_data(0, vec![0x0102_0304_0506_0708]);
        let mut stream = ch.beat_stream(&cfg());
        let bytes = stream.next_beat_bytes().unwrap();
        assert_eq!(bytes.len(), 64);
        assert_eq!(
            &bytes[..8],
            &[0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01]
        );
        assert!(stream.next_beat_bytes().is_none());
    }

    #[test]
    fn push_extends_the_list() {
        let mut ch = Channel::new(0);
        for w in 0..9u64 {
            ch.push(w);
        }
        assert_eq!(ch.len(), 9);
        assert_eq!(ch.beats(&cfg()), 2);
    }

    #[test]
    fn narrower_elements_pack_more_per_beat() {
        // Hypothetical 128-bit port with 32-bit elements: 4 per beat.
        let cfg = HbmConfig {
            port_width_bits: 128,
            element_bits: 32,
            ..cfg()
        };
        let ch = Channel::with_data(0, (0..5u64).collect());
        assert_eq!(ch.beats(&cfg), 2);
    }
}
