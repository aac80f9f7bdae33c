//! The wire's bottom layer: length-prefixed JSON frames.
//!
//! Every message in either direction is one **frame**: a 4-byte
//! big-endian payload length followed by that many bytes of UTF-8 JSON
//! (compact form on the wire; whitespace is legal since the payload is
//! re-parsed). Length prefixing keeps framing trivial for any client —
//! a shell script can speak it with `head -c` — and the JSON payload
//! rides the workspace's dependency-free `dqc-types::json` layer, so
//! daemon and client serialize through exactly the code the results
//! pipeline already pins.
//!
//! A frame is written as one buffer, prefix and payload together, so it
//! leaves in one write however large it is: with `TCP_NODELAY` on, a
//! prefix written on its own would go out as a 4-byte segment of its own.
//!
//! Frames are capped at [`MAX_FRAME_BYTES`]; an oversized length prefix
//! is rejected *before* allocating, so a garbage or hostile peer cannot
//! balloon the daemon's memory. Below the cap, the payload buffer grows
//! with the bytes received, not with the declared length: it starts at
//! no more than 64 KiB (one allocation for every result frame and every
//! portfolio submit), so a peer that announces 16 MiB and sends little
//! holds little.

use dqc_types::Json;
use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

/// Largest accepted frame payload (16 MiB) — comfortably above any
/// portfolio circuit (QFT-32's submit is about 20 KB of QASM) and far
/// below anything that could hurt the daemon.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// The payload buffer's starting capacity, at most: a longer frame grows
/// it as its bytes arrive.
const INITIAL_PAYLOAD_BYTES: usize = 64 * 1024;

/// Everything that can go wrong reading or writing a frame.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// An I/O error (including mid-frame EOF, surfaced as
    /// [`io::ErrorKind::UnexpectedEof`]).
    Io(io::Error),
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    TooLarge {
        /// The advertised payload length.
        bytes: usize,
    },
    /// The payload is not valid UTF-8 JSON.
    BadPayload(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => f.write_str("connection closed"),
            FrameError::Io(e) => write!(f, "frame i/o failed: {e}"),
            FrameError::TooLarge { bytes } => write!(
                f,
                "frame of {bytes} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
            ),
            FrameError::BadPayload(message) => write!(f, "bad frame payload: {message}"),
        }
    }
}

impl Error for FrameError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame (compact JSON) and flushes the stream. The prefix
/// and the payload are handed to `writer` as one buffer: the payload is
/// serialized behind four placeholder bytes, which then become the
/// length.
///
/// # Errors
///
/// [`FrameError::TooLarge`] if the serialized payload exceeds
/// [`MAX_FRAME_BYTES`], otherwise any underlying [`FrameError::Io`].
pub fn write_frame(writer: &mut impl Write, payload: &Json) -> Result<(), FrameError> {
    let mut frame = String::from("\0\0\0\0");
    payload.write_compact(&mut frame);
    let mut frame = frame.into_bytes();
    let bytes = frame.len() - 4;
    if bytes > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge { bytes });
    }
    let len = u32::try_from(bytes).expect("MAX_FRAME_BYTES fits u32");
    frame[..4].copy_from_slice(&len.to_be_bytes());
    writer.write_all(&frame)?;
    writer.flush()?;
    Ok(())
}

/// Reads one frame, blocking until a whole frame (or EOF) arrives.
///
/// # Errors
///
/// [`FrameError::Closed`] on a clean EOF at a frame boundary;
/// [`FrameError::Io`] with [`io::ErrorKind::UnexpectedEof`] on a
/// mid-frame disconnect; [`FrameError::TooLarge`] /
/// [`FrameError::BadPayload`] on protocol garbage.
pub fn read_frame(reader: &mut impl Read) -> Result<Json, FrameError> {
    let mut prefix = [0u8; 4];
    // A clean close between frames is normal end-of-stream, not an error.
    match reader.read(&mut prefix)? {
        0 => return Err(FrameError::Closed),
        n => reader.read_exact(&mut prefix[n..])?,
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge { bytes: len });
    }
    let mut payload = Vec::with_capacity(len.min(INITIAL_PAYLOAD_BYTES));
    reader.by_ref().take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
    }
    let text = String::from_utf8(payload)
        .map_err(|e| FrameError::BadPayload(format!("not UTF-8: {e}")))?;
    Json::parse(&text).map_err(|e| FrameError::BadPayload(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let doc = Json::object([
            ("type", Json::from("hello")),
            ("protocol", Json::Int(1)),
            ("nested", Json::Array(vec![Json::float(0.25), Json::Null])),
        ]);
        // Longer than the initial payload buffer, so the read grows it.
        let long = Json::object([("pad", Json::from("x".repeat(3 * INITIAL_PAYLOAD_BYTES)))]);
        let mut wire = Vec::new();
        write_frame(&mut wire, &doc).unwrap();
        write_frame(&mut wire, &long).unwrap();
        let mut cursor = wire.as_slice();
        for sent in [&doc, &long] {
            let back = read_frame(&mut cursor).unwrap();
            assert_eq!(back.to_compact_string(), sent.to_compact_string());
        }
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Closed)));
    }

    #[test]
    fn several_frames_stream_back_to_back() {
        let mut wire = Vec::new();
        for i in 0..5i64 {
            write_frame(&mut wire, &Json::object([("i", Json::from(i))])).unwrap();
        }
        let mut cursor = wire.as_slice();
        for i in 0..5 {
            let frame = read_frame(&mut cursor).unwrap();
            assert_eq!(frame.i64_field("i").unwrap(), i);
        }
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Closed)));
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocating() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_be_bytes());
        wire.extend_from_slice(b"whatever");
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert!(matches!(err, FrameError::TooLarge { .. }), "{err}");
    }

    #[test]
    fn mid_frame_eof_is_an_io_error_not_a_clean_close() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Json::object([("x", Json::Int(1))])).unwrap();
        wire.truncate(wire.len() - 2);
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        match err {
            FrameError::Io(e) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected Io(UnexpectedEof), got {other}"),
        }
        // A truncated length prefix is equally a mid-frame disconnect.
        let err = read_frame(&mut [0u8, 0u8].as_slice()).unwrap_err();
        assert!(matches!(err, FrameError::Io(_)), "{err}");
    }

    /// A peer that records the largest buffer any read offers it.
    struct Recording<'a> {
        bytes: &'a [u8],
        largest_read: usize,
    }

    impl Read for Recording<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest_read = self.largest_read.max(buf.len());
            self.bytes.read(buf)
        }
    }

    #[test]
    fn payload_buffer_follows_the_bytes_received() {
        // Declares the largest legal frame, then sends 100 bytes of it.
        let mut wire = u32::try_from(MAX_FRAME_BYTES)
            .unwrap()
            .to_be_bytes()
            .to_vec();
        wire.extend_from_slice(&[b' '; 100]);
        let mut peer = Recording {
            bytes: &wire,
            largest_read: 0,
        };
        match read_frame(&mut peer).unwrap_err() {
            FrameError::Io(e) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected Io(UnexpectedEof), got {other}"),
        }
        assert!(
            peer.largest_read <= INITIAL_PAYLOAD_BYTES,
            "a read was offered {} bytes for 100 received",
            peer.largest_read
        );
    }

    /// A socket stand-in that records the length of every write.
    #[derive(Default)]
    struct Counting {
        writes: Vec<usize>,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_leaves_in_one_write() {
        // Below, just above and well above the 8 KiB `BufWriter` buffer
        // the daemon and the client write through.
        for bytes in [1_000, 9_000, 20_000] {
            // `{"pad":""}` is 10 bytes.
            let payload = Json::object([("pad", Json::from("x".repeat(bytes - 10)))]);
            assert_eq!(payload.to_compact_string().len(), bytes);
            let mut writer = std::io::BufWriter::new(Counting::default());
            write_frame(&mut writer, &payload).unwrap();
            assert_eq!(
                writer.get_ref().writes,
                [4 + bytes],
                "a {bytes}-byte payload took more than one write"
            );
        }
    }

    #[test]
    fn garbage_payload_is_a_bad_payload_error() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&4u32.to_be_bytes());
        wire.extend_from_slice(b"{{{{");
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert!(matches!(err, FrameError::BadPayload(_)), "{err}");
        let mut wire = Vec::new();
        wire.extend_from_slice(&2u32.to_be_bytes());
        wire.extend_from_slice(&[0xff, 0xfe]);
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert!(matches!(err, FrameError::BadPayload(_)), "{err}");
    }
}
