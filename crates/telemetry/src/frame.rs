//! The wire framing shared by the serve protocol and every client of
//! it (`flight_serve`'s client and server, `flightctl top`/`profile`).
//!
//! Every message is one frame: a 4-byte little-endian payload length
//! followed by that many payload bytes. Framing keeps the parser
//! trivial (no streaming, no delimiter escaping) and makes partial reads
//! detectable: a connection that dies mid-frame is an error, a
//! connection that closes between frames is a clean EOF.

use std::io::{Read, Write};

/// Upper bound on one frame's payload, bytes. Large enough for any
/// realistic image or logits array, small enough that a corrupt length
/// prefix cannot trigger a gigabyte allocation.
pub const MAX_FRAME: usize = 1 << 24;

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O errors; rejects payloads above [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean close (EOF exactly at a frame
/// boundary); EOF inside a frame is an error.
///
/// # Errors
///
/// Propagates I/O errors; rejects frames above [`MAX_FRAME`].
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    match r.read(&mut len_bytes)? {
        0 => return Ok(None),
        n => r.read_exact(&mut len_bytes[n..])?,
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_and_eof_is_clean_only_at_boundaries() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"op\":\"ping\"}").unwrap();
        write_frame(&mut buf, b"xy").unwrap();
        let mut cursor = std::io::Cursor::new(buf.clone());
        assert_eq!(
            read_frame(&mut cursor).unwrap().as_deref(),
            Some(&b"{\"op\":\"ping\"}"[..])
        );
        assert_eq!(
            read_frame(&mut cursor).unwrap().as_deref(),
            Some(&b"xy"[..])
        );
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");

        // Truncated mid-frame: error, not silent truncation.
        let mut truncated = std::io::Cursor::new(buf[..buf.len() - 1].to_vec());
        read_frame(&mut truncated).unwrap();
        assert!(read_frame(&mut truncated).is_err());
    }

    #[test]
    fn oversized_frames_are_rejected_on_both_sides() {
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &vec![0u8; MAX_FRAME + 1]).is_err());
        let mut huge = Vec::from(u32::MAX.to_le_bytes());
        huge.extend_from_slice(b"xx");
        assert!(read_frame(&mut std::io::Cursor::new(huge)).is_err());
    }
}
