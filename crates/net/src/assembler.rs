//! Byte-fed CHSP frame reassembly.
//!
//! The readiness loop hands a connection whatever bytes the socket had —
//! half a header, three frames and a fragment, one byte at a time — and
//! [`FrameAssembler`] turns that stream back into whole frame payloads.
//! It reads the little-endian `u32` length prefix, enforces the cap
//! before any payload allocation, and bounds preallocation so a hostile
//! header cannot reserve gigabytes. The serve crate's blocking
//! `FrameReader` is this state machine fed from a `Read`.

/// Frame payloads never preallocate more than this many bytes up front,
/// however large the (validated) declared length is; the buffer grows as
/// real bytes arrive.
const PREALLOC_LIMIT: usize = 1 << 20;

/// The most bytes one socket read asks for: the readiness loop's scratch
/// buffer and the blocking `FrameReader`'s largest payload read.
pub const READ_CHUNK: usize = 16 * 1024;

/// Why reassembly stopped: the one unrecoverable stream state.
///
/// Past an over-cap length header the stream cannot be resynchronized
/// (the next frame boundary is unknowable), so the connection must be
/// closed after an optional final reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTooLarge {
    /// Declared payload length.
    pub len: u64,
    /// The configured cap it exceeded.
    pub cap: u64,
}

impl std::fmt::Display for FrameTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frame of {} bytes exceeds the {}-byte cap",
            self.len, self.cap
        )
    }
}

impl std::error::Error for FrameTooLarge {}

/// Incremental frame state machine over caller-supplied bytes.
///
/// Feed it byte chunks as they arrive; complete payloads come out in
/// order. Partial progress (a half-read header or payload) is retained
/// between calls, so any split of the byte stream — including one byte at
/// a time — assembles the same frames as a one-shot read.
#[derive(Debug)]
pub struct FrameAssembler {
    max_len: usize,
    header: [u8; 4],
    filled: usize,
    payload: Vec<u8>,
    payload_len: Option<usize>,
    poisoned: bool,
}

impl FrameAssembler {
    /// Creates an assembler enforcing `max_len` on every frame.
    pub fn new(max_len: usize) -> Self {
        FrameAssembler {
            max_len,
            header: [0; 4],
            filled: 0,
            payload: Vec::new(),
            payload_len: None,
            poisoned: false,
        }
    }

    /// Whether a frame is partially assembled (EOF now would be a
    /// mid-frame disconnect, not a clean close).
    pub fn mid_frame(&self) -> bool {
        self.filled > 0 || self.payload_len.is_some()
    }

    /// How many more bytes complete the current header or payload: the
    /// most a reader that must not consume the next frame may ask for.
    /// Zero only once poisoned, when no byte can complete anything.
    pub fn wanted(&self) -> usize {
        match self.payload_len {
            Some(len) => len - self.payload.len(),
            None => 4 - self.filled,
        }
    }

    /// Consumes `bytes`, appending every completed frame payload to
    /// `out`.
    ///
    /// # Errors
    ///
    /// [`FrameTooLarge`] when a header declares an over-cap length.
    /// Frames completed earlier in the same call are already in `out` and
    /// remain valid; the assembler itself is poisoned — further `feed`
    /// calls keep returning the error.
    pub fn feed(&mut self, mut bytes: &[u8], out: &mut Vec<Vec<u8>>) -> Result<(), FrameTooLarge> {
        if self.poisoned {
            return Err(FrameTooLarge {
                len: u32::from_le_bytes(self.header) as u64,
                cap: self.max_len as u64,
            });
        }
        while !bytes.is_empty() {
            let (head, rest) = bytes.split_at(self.wanted().min(bytes.len()));
            bytes = rest;
            if let Some(len) = self.payload_len {
                self.payload.extend_from_slice(head);
                if self.payload.len() == len {
                    out.push(std::mem::take(&mut self.payload));
                    self.payload_len = None;
                    self.filled = 0;
                }
            } else {
                self.header[self.filled..self.filled + head.len()].copy_from_slice(head);
                self.filled += head.len();
                if self.filled == 4 {
                    let len = u32::from_le_bytes(self.header) as usize;
                    if len > self.max_len {
                        self.poisoned = true;
                        return Err(FrameTooLarge {
                            len: len as u64,
                            cap: self.max_len as u64,
                        });
                    }
                    self.payload = Vec::with_capacity(len.min(PREALLOC_LIMIT));
                    self.payload_len = Some(len);
                    // A zero-length frame completes without more bytes.
                    if len == 0 {
                        out.push(Vec::new());
                        self.payload_len = None;
                        self.filled = 0;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn one_shot_equals_byte_at_a_time() {
        let mut wire = frame(b"alpha");
        wire.extend(frame(b""));
        wire.extend(frame(&[0xAA; 300]));

        let mut oneshot = Vec::new();
        FrameAssembler::new(1024).feed(&wire, &mut oneshot).unwrap();

        let mut trickled = Vec::new();
        let mut asm = FrameAssembler::new(1024);
        for byte in &wire {
            asm.feed(std::slice::from_ref(byte), &mut trickled).unwrap();
        }
        assert_eq!(oneshot, trickled);
        assert_eq!(oneshot.len(), 3);
        assert_eq!(oneshot[0], b"alpha");
        assert!(oneshot[1].is_empty());
    }

    #[test]
    fn oversized_header_poisons() {
        let mut asm = FrameAssembler::new(8);
        let mut out = Vec::new();
        let err = asm.feed(&frame(&[0u8; 9]), &mut out).unwrap_err();
        assert_eq!(err, FrameTooLarge { len: 9, cap: 8 });
        assert!(out.is_empty());
        // Poisoned: even innocuous bytes keep failing.
        assert!(asm.feed(&[0, 0, 0, 0], &mut out).is_err());
    }

    #[test]
    fn frames_before_the_oversized_one_survive() {
        let mut wire = frame(b"ok");
        wire.extend(frame(&[0u8; 100])); // over an 8-byte cap
        let mut asm = FrameAssembler::new(8);
        let mut out = Vec::new();
        assert!(asm.feed(&wire, &mut out).is_err());
        assert_eq!(out, vec![b"ok".to_vec()]);
    }

    #[test]
    fn mid_frame_reports_partial_progress() {
        let mut asm = FrameAssembler::new(64);
        let mut out = Vec::new();
        assert!(!asm.mid_frame());
        assert_eq!(asm.wanted(), 4);
        asm.feed(&[5, 0], &mut out).unwrap();
        assert!(asm.mid_frame());
        assert_eq!(asm.wanted(), 2, "the rest of the header");
        asm.feed(&[0, 0, b'h', b'e', b'l'], &mut out).unwrap();
        assert!(asm.mid_frame());
        assert_eq!(asm.wanted(), 2, "the rest of the payload");
        asm.feed(b"lo", &mut out).unwrap();
        assert!(!asm.mid_frame());
        assert_eq!(asm.wanted(), 4, "the next header");
        assert_eq!(out, vec![b"hello".to_vec()]);
    }

    #[test]
    fn poisoned_assembler_wants_nothing() {
        let mut asm = FrameAssembler::new(8);
        assert!(asm.feed(&[9, 0, 0, 0], &mut Vec::new()).is_err());
        assert_eq!(asm.wanted(), 0);
    }
}
