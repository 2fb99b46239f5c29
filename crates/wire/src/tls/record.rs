//! TLS record layer framing.

use crate::{Error, Result};

/// TLS record content types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentType {
    /// change_cipher_spec(20)
    ChangeCipherSpec,
    /// alert(21)
    Alert,
    /// handshake(22)
    Handshake,
    /// application_data(23)
    ApplicationData,
}

impl ContentType {
    fn from_u8(v: u8) -> Option<ContentType> {
        Some(match v {
            20 => ContentType::ChangeCipherSpec,
            21 => ContentType::Alert,
            22 => ContentType::Handshake,
            23 => ContentType::ApplicationData,
            _ => return None,
        })
    }

    fn to_u8(self) -> u8 {
        match self {
            ContentType::ChangeCipherSpec => 20,
            ContentType::Alert => 21,
            ContentType::Handshake => 22,
            ContentType::ApplicationData => 23,
        }
    }
}

/// TLS protocol versions as (major, minor) wire pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ProtocolVersion(pub u8, pub u8);

impl ProtocolVersion {
    /// TLS 1.0 — used as the record-layer version in ClientHello for
    /// maximum middlebox compatibility (what browsers do).
    pub const TLS10: ProtocolVersion = ProtocolVersion(3, 1);
    /// TLS 1.2.
    pub const TLS12: ProtocolVersion = ProtocolVersion(3, 3);
}

/// Maximum record payload: 2^14 plus the historic 2048-byte slack some
/// implementations emit.
pub const MAX_RECORD_LEN: usize = (1 << 14) + 2048;

/// A parsed TLS record (header + owned payload slice bounds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record<'a> {
    /// Content type.
    pub content_type: ContentType,
    /// Record-layer version.
    pub version: ProtocolVersion,
    /// Payload (fragment) bytes.
    pub payload: &'a [u8],
}

/// Record header length.
pub const HEADER_LEN: usize = 5;

impl<'a> Record<'a> {
    /// Parse one record from the front of `data`.
    ///
    /// Returns the record and the number of bytes consumed.
    /// `Error::Truncated` means "wait for more stream data".
    pub fn parse(data: &'a [u8]) -> Result<(Record<'a>, usize)> {
        if data.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        let content_type = ContentType::from_u8(data[0]).ok_or(Error::TlsSyntax)?;
        let version = ProtocolVersion(data[1], data[2]);
        if version.0 != 3 {
            return Err(Error::TlsSyntax);
        }
        let len = u16::from_be_bytes([data[3], data[4]]) as usize;
        if len > MAX_RECORD_LEN {
            return Err(Error::Malformed);
        }
        if data.len() < HEADER_LEN + len {
            return Err(Error::Truncated);
        }
        Ok((
            Record {
                content_type,
                version,
                payload: &data[HEADER_LEN..HEADER_LEN + len],
            },
            HEADER_LEN + len,
        ))
    }

    /// Frame a payload as a single record.
    ///
    /// # Panics
    /// Panics if `payload` exceeds [`MAX_RECORD_LEN`]; callers must
    /// fragment (see [`emit_fragmented`]).
    pub fn emit(content_type: ContentType, version: ProtocolVersion, payload: &[u8]) -> Vec<u8> {
        assert!(payload.len() <= MAX_RECORD_LEN, "record payload too long");
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&header(content_type, version, payload.len()));
        out.extend_from_slice(payload);
        out
    }
}

/// The header of a record carrying `len` payload bytes.
pub fn header(content_type: ContentType, version: ProtocolVersion, len: usize) -> [u8; HEADER_LEN] {
    let [hi, lo] = (len as u16).to_be_bytes();
    [content_type.to_u8(), version.0, version.1, hi, lo]
}

/// The most payload one record of [`emit_fragmented`] carries (2^14).
pub const MAX_FRAGMENT: usize = 1 << 14;

/// Frame a (possibly long) payload into as many records as needed, each at
/// most [`MAX_FRAGMENT`] bytes — how servers ship big certificate chains.
pub fn emit_fragmented(
    content_type: ContentType,
    version: ProtocolVersion,
    payload: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + HEADER_LEN);
    for chunk in payload.chunks(MAX_FRAGMENT) {
        out.extend_from_slice(&Record::emit(content_type, version, chunk));
    }
    if payload.is_empty() {
        out.extend_from_slice(&Record::emit(content_type, version, &[]));
    }
    out
}

/// Iterate all complete records at the front of a stream buffer, returning
/// the parsed records and total bytes consumed; a trailing partial record
/// is left unconsumed.
pub fn parse_stream(data: &[u8]) -> Result<(Vec<Record<'_>>, usize)> {
    let mut records = Vec::new();
    let mut offset = 0;
    while offset < data.len() {
        match Record::parse(&data[offset..]) {
            Ok((rec, used)) => {
                records.push(rec);
                offset += used;
            }
            Err(Error::Truncated) => break,
            Err(e) => return Err(e),
        }
    }
    Ok((records, offset))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trip() {
        let buf = Record::emit(ContentType::Handshake, ProtocolVersion::TLS12, b"hello");
        let (rec, used) = Record::parse(&buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(rec.content_type, ContentType::Handshake);
        assert_eq!(rec.version, ProtocolVersion::TLS12);
        assert_eq!(rec.payload, b"hello");
    }

    #[test]
    fn partial_record_is_truncated() {
        let buf = Record::emit(ContentType::Alert, ProtocolVersion::TLS12, &[2, 40]);
        assert!(matches!(
            Record::parse(&buf[..buf.len() - 1]),
            Err(Error::Truncated)
        ));
    }

    #[test]
    fn bad_content_type_rejected() {
        let mut buf = Record::emit(ContentType::Alert, ProtocolVersion::TLS12, &[2, 40]);
        buf[0] = 99;
        assert!(matches!(Record::parse(&buf), Err(Error::TlsSyntax)));
    }

    #[test]
    fn fragmentation_and_stream_reassembly() {
        let payload = vec![0xabu8; (1 << 14) + 5000];
        let framed = emit_fragmented(ContentType::Handshake, ProtocolVersion::TLS12, &payload);
        let (records, used) = parse_stream(&framed).unwrap();
        assert_eq!(used, framed.len());
        assert_eq!(records.len(), 2);
        let total: usize = records.iter().map(|r| r.payload.len()).sum();
        assert_eq!(total, payload.len());
    }

    #[test]
    fn stream_stops_at_partial_tail() {
        let mut framed = Record::emit(ContentType::Handshake, ProtocolVersion::TLS12, b"abc");
        let first_len = framed.len();
        framed.extend_from_slice(&[22, 3, 3, 0, 10, 1, 2]); // incomplete second record
        let (records, used) = parse_stream(&framed).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(used, first_len);
    }

    #[test]
    fn empty_payload_still_emits_one_record() {
        let framed = emit_fragmented(ContentType::Handshake, ProtocolVersion::TLS12, &[]);
        let (records, _) = parse_stream(&framed).unwrap();
        assert_eq!(records.len(), 1);
        assert!(records[0].payload.is_empty());
    }
}
