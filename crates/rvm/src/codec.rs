//! Binary encoding of log records.
//!
//! Records are framed as:
//!
//! ```text
//! MAGIC(4) kind(1) tid(8) region(8) offset(8) len(8) data(len) crc(8)
//! ```
//!
//! The CRC (an FNV-1a over everything from `kind` to the end of `data`)
//! exists to detect the torn tail record a crash mid-append leaves behind;
//! replay stops at the first frame whose magic or checksum does not verify.

use bytes::{Buf, BufMut};

/// Frame magic, "RVM1".
pub const MAGIC: u32 = 0x5256_4D31;

/// FNV-1a 64-bit checksum.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// A raw frame read back from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Record discriminant (see [`crate::RecordKind`]).
    pub kind: u8,
    /// Transaction id.
    pub tid: u64,
    /// Region id (0 for control records).
    pub region: u64,
    /// Byte offset within the region.
    pub offset: u64,
    /// New-value bytes (empty for control records).
    pub data: Vec<u8>,
}

impl Frame {
    /// Appends the encoded frame to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.put_u32(MAGIC);
        let body_start = out.len();
        out.put_u8(self.kind);
        out.put_u64(self.tid);
        out.put_u64(self.region);
        out.put_u64(self.offset);
        out.put_u64(self.data.len() as u64);
        out.extend_from_slice(&self.data);
        let crc = fnv1a(&out[body_start..]);
        out.put_u64(crc);
    }

    /// Decodes one frame from the front of `buf`, advancing it.
    ///
    /// Returns `None` (without advancing) if the buffer holds no complete,
    /// well-formed frame — the signal that the remainder is a torn tail.
    pub fn decode(buf: &mut &[u8]) -> Option<Frame> {
        const HEADER: usize = 4 + 1 + 8 * 4;
        if buf.len() < HEADER {
            return None;
        }
        let mut peek = *buf;
        if peek.get_u32() != MAGIC {
            return None;
        }
        let body = &buf[4..];
        let mut p = peek;
        let kind = p.get_u8();
        let tid = p.get_u64();
        let region = p.get_u64();
        let offset = p.get_u64();
        let len = p.get_u64() as usize;
        let total = HEADER + len + 8;
        if buf.len() < total {
            return None;
        }
        let data = p[..len].to_vec();
        let mut q = &p[len..];
        let crc = q.get_u64();
        if crc != fnv1a(&body[..HEADER - 4 + len]) {
            return None;
        }
        *buf = &buf[total..];
        Some(Frame {
            kind,
            tid,
            region,
            offset,
            data,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trip() {
        let f = Frame {
            kind: 2,
            tid: 7,
            region: 3,
            offset: 96,
            data: vec![1, 2, 3],
        };
        let mut bytes = Vec::new();
        f.encode(&mut bytes);
        assert_eq!(bytes.len(), 4 + 1 + 8 * 4 + 3 + 8);
        let mut slice = bytes.as_slice();
        let g = Frame::decode(&mut slice).expect("decodes");
        assert_eq!(f, g);
        assert!(slice.is_empty());
    }

    #[test]
    fn torn_tail_is_rejected_not_misread() {
        let f = Frame {
            kind: 1,
            tid: 9,
            region: 1,
            offset: 0,
            data: vec![9; 100],
        };
        let mut bytes = Vec::new();
        f.encode(&mut bytes);
        for cut in 1..bytes.len() {
            let mut slice = &bytes[..bytes.len() - cut];
            assert!(Frame::decode(&mut slice).is_none(), "cut={cut} decoded");
        }
    }

    #[test]
    fn corrupted_byte_fails_crc() {
        let f = Frame {
            kind: 1,
            tid: 9,
            region: 1,
            offset: 8,
            data: vec![5; 16],
        };
        let mut bytes = Vec::new();
        f.encode(&mut bytes);
        for i in 4..bytes.len() - 8 {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0xFF;
            let mut slice = corrupt.as_slice();
            assert!(Frame::decode(&mut slice).is_none(), "flip at {i} decoded");
        }
    }

    #[test]
    fn multiple_frames_in_sequence() {
        let frames: Vec<Frame> = (0..5)
            .map(|i| Frame {
                kind: 2,
                tid: i,
                region: i,
                offset: i * 8,
                data: vec![i as u8; i as usize],
            })
            .collect();
        let mut bytes = Vec::new();
        for f in &frames {
            f.encode(&mut bytes);
        }
        let mut slice = bytes.as_slice();
        let mut got = Vec::new();
        while let Some(f) = Frame::decode(&mut slice) {
            got.push(f);
        }
        assert_eq!(got, frames);
    }

    proptest! {
        #[test]
        fn prop_round_trip(kind in 0u8..4, tid in any::<u64>(), region in any::<u64>(),
                           offset in any::<u64>(), data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let f = Frame { kind, tid, region, offset, data };
            let mut bytes = Vec::new();
            f.encode(&mut bytes);
            let mut slice = bytes.as_slice();
            prop_assert_eq!(Frame::decode(&mut slice), Some(f));
            prop_assert!(slice.is_empty());
        }
    }
}
