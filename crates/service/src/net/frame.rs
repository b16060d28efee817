//! The `SORT_1` wire format: length-prefixed binary frames.
//!
//! Every frame on the wire — request or reply — is a 4-byte
//! little-endian length prefix (the byte count of everything after it)
//! followed by a fixed header and a payload:
//!
//! ```text
//! request                              reply
//! ┌────────────┬──────────────┐       ┌────────────┬──────────────┐
//! │ u32 length │ 20-byte head │       │ u32 length │ 16-byte head │
//! ├────────────┴──────────────┤       ├────────────┴──────────────┤
//! │ magic  "SRT1"  (4 bytes)  │       │ magic  "SRT1"  (4 bytes)  │
//! │ version   1    (u8)       │       │ version   1    (u8)       │
//! │ flags          (u8)       │       │ status         (u8)       │
//! │ key width      (u8)       │       │ key width      (u8)       │
//! │ reserved  0    (u8)       │       │ reserved  0    (u8)       │
//! │ deadline µs    (u64 LE)   │       │ detail a       (u64 LE)   │
//! │ key count      (u32 LE)   │       │ detail b       (u64 LE)   │
//! │ keys  count×width bytes   │       │ body (keys or message)    │
//! │ [payload section]         │       └───────────────────────────┘
//! └───────────────────────────┘
//! ```
//!
//! Flags bit 0 selects the sort direction (0 ascending, 1 descending);
//! bit 1 declares a payload section — a `u32 LE` per-key stride followed
//! by `count × stride` payload bytes after the keys; all other bits must
//! be zero. A deadline of 0 means "server default". The codec accepts
//! any key width in [`SUPPORTED_WIDTHS`]; the serving stack sorts
//! widths 4, 8 and 16 as record requests (width 4 without a payload
//! rides the legacy plain path), and [`RequestFrame::into_record_request`]
//! answers widths 1 and 2 with a structured [`FrameError::BadWidth`].
//!
//! Decoding never panics: every malformed input — short buffer, bad
//! magic, unknown version, ragged key bytes, oversized declaration —
//! maps to a [`FrameError`] that the server echoes on the wire (status
//! `bad_frame`) before closing the connection.
//!
//! Reply status codes are [`ReplyFrame`] variants: `0` carries sorted
//! keys; `1..=5` are the admission [`Rejection`] reasons with the
//! variant's two numeric fields in `detail a`/`detail b`; `6`..`8` are
//! the post-admission [`crate::SortError`] outcomes; `9` echoes a
//! [`FrameError`]; `10` is a structured bulk-sort failure (`detail a`
//! names the shard that sank the request, the body carries the
//! reason); `11` carries a sorted record reply (keys then payload, the
//! stride in `detail b`). Labels round-trip exactly so wire-side shed
//! counters reconcile against the registry's per-reason counters.

use crate::admission::Rejection;
use crate::server::{RecordKeys, RecordRequest, SortError, SortRequest};
use bitonic_network::Direction;
use std::time::Duration;

/// Frame magic: the first four payload bytes of every `SORT_1` frame.
pub const MAGIC: [u8; 4] = *b"SRT1";

/// Protocol version this build speaks.
pub const VERSION: u8 = 1;

/// Request header length in bytes (after the length prefix).
pub const REQUEST_HEADER: usize = 20;

/// Reply header length in bytes (after the length prefix).
pub const REPLY_HEADER: usize = 24;

/// Length-prefix size in bytes.
pub const LEN_PREFIX: usize = 4;

/// Key widths (bytes per key) the codec round-trips. The serving stack
/// sorts widths 4, 8 and 16; widths 1 and 2 decode but are refused with
/// [`FrameError::BadWidth`] when converted to a service request.
pub const SUPPORTED_WIDTHS: [u8; 5] = [1, 2, 4, 8, 16];

/// Key widths the serving stack actually sorts (as record requests).
pub const SORTABLE_WIDTHS: [u8; 3] = [4, 8, 16];

/// Flags bit 0: descending order requested.
const FLAG_DESCENDING: u8 = 0b0000_0001;
/// Flags bit 1: the frame carries a payload section after the keys.
const FLAG_PAYLOAD: u8 = 0b0000_0010;
/// All bits a version-1 frame may set.
const FLAG_MASK: u8 = FLAG_DESCENDING | FLAG_PAYLOAD;

/// Why a frame failed to decode. Structured — the server sends the
/// label back on the wire before disconnecting, and tests assert the
/// exact reason, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the declared frame does.
    Truncated {
        /// Bytes the frame declared (or the header needs).
        needed: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The declared frame length exceeds the receiver's limit.
    Oversized {
        /// Bytes the frame declared.
        declared: usize,
        /// The receiver's frame-size limit.
        limit: usize,
    },
    /// The first four payload bytes are not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unknown protocol version.
    BadVersion(u8),
    /// Flag bits outside the version-1 mask are set.
    BadFlags(u8),
    /// The key width is not in [`SUPPORTED_WIDTHS`] (or, at the server,
    /// not the width the serving stack sorts).
    BadWidth(u8),
    /// The body length does not equal `count * width`.
    CountMismatch {
        /// Keys the header declared.
        declared: usize,
        /// Key bytes actually present in the body.
        body_bytes: usize,
    },
    /// A reply carried an unknown status code.
    BadStatus(u8),
    /// The payload section is malformed: the stride word is missing, or
    /// the payload bytes present do not equal `count * stride`.
    PayloadMismatch {
        /// Payload bytes the header's count and stride require.
        declared: usize,
        /// Payload bytes actually present.
        body_bytes: usize,
    },
}

impl FrameError {
    /// Stable label naming the error class — the `reason` label on the
    /// `bitonic_wire_frame_errors_total` metric and the detail code
    /// echoed in a `bad_frame` reply.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FrameError::Truncated { .. } => "truncated",
            FrameError::Oversized { .. } => "oversized",
            FrameError::BadMagic(_) => "bad_magic",
            FrameError::BadVersion(_) => "bad_version",
            FrameError::BadFlags(_) => "bad_flags",
            FrameError::BadWidth(_) => "bad_width",
            FrameError::CountMismatch { .. } => "count_mismatch",
            FrameError::BadStatus(_) => "bad_status",
            FrameError::PayloadMismatch { .. } => "payload_mismatch",
        }
    }

    /// Wire code for the `bad_frame` reply detail byte.
    #[must_use]
    pub fn code(&self) -> u8 {
        match self {
            FrameError::Truncated { .. } => 0,
            FrameError::Oversized { .. } => 1,
            FrameError::BadMagic(_) => 2,
            FrameError::BadVersion(_) => 3,
            FrameError::BadFlags(_) => 4,
            FrameError::BadWidth(_) => 5,
            FrameError::CountMismatch { .. } => 6,
            FrameError::BadStatus(_) => 7,
            FrameError::PayloadMismatch { .. } => 8,
        }
    }

    /// Label for a wire code (the inverse of [`FrameError::code`] up to
    /// the lost detail fields).
    #[must_use]
    pub fn label_of_code(code: u8) -> &'static str {
        match code {
            0 => "truncated",
            1 => "oversized",
            2 => "bad_magic",
            3 => "bad_version",
            4 => "bad_flags",
            5 => "bad_width",
            6 => "count_mismatch",
            7 => "bad_status",
            8 => "payload_mismatch",
            _ => "unknown",
        }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { needed, have } => {
                write!(f, "frame truncated: needs {needed} bytes, have {have}")
            }
            FrameError::Oversized { declared, limit } => {
                write!(f, "frame declares {declared} bytes (limit {limit})")
            }
            FrameError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unknown protocol version {v}"),
            FrameError::BadFlags(bits) => write!(f, "unknown flag bits {bits:#010b}"),
            FrameError::BadWidth(w) => write!(f, "unsupported key width {w}"),
            FrameError::CountMismatch {
                declared,
                body_bytes,
            } => write!(
                f,
                "header declares {declared} keys but the body holds {body_bytes} key bytes"
            ),
            FrameError::BadStatus(s) => write!(f, "unknown reply status {s}"),
            FrameError::PayloadMismatch {
                declared,
                body_bytes,
            } => write!(
                f,
                "payload section declares {declared} bytes but holds {body_bytes}"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// One decoded request frame: the wire-side twin of [`SortRequest`].
///
/// Keys are kept as raw little-endian bytes with their width so the
/// codec round-trips every supported width; [`RequestFrame::keys_u32`]
/// gives the typed view the current serving stack sorts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestFrame {
    /// Requested output order.
    pub dir: Direction,
    /// Bytes per key (must be in [`SUPPORTED_WIDTHS`]).
    pub width: u8,
    /// Per-request deadline in microseconds; 0 means server default.
    pub deadline_us: u64,
    /// Raw little-endian key bytes, length `count() * width`.
    pub key_bytes: Vec<u8>,
    /// Payload bytes per key; 0 means the frame carries no payload
    /// section and `payload` is empty.
    pub payload_stride: u32,
    /// Payload rows, `count() * payload_stride` bytes, row `i`
    /// belonging to key `i`.
    pub payload: Vec<u8>,
}

impl RequestFrame {
    fn from_key_bytes(
        width: u8,
        key_bytes: Vec<u8>,
        dir: Direction,
        deadline: Option<Duration>,
    ) -> Self {
        RequestFrame {
            dir,
            width,
            deadline_us: deadline.map_or(0, |d| d.as_micros().min(u128::from(u64::MAX)) as u64),
            key_bytes,
            payload_stride: 0,
            payload: Vec::new(),
        }
    }

    /// A width-4 frame carrying `keys`.
    #[must_use]
    pub fn from_u32_keys(keys: &[u32], dir: Direction, deadline: Option<Duration>) -> Self {
        let key_bytes = keys.iter().flat_map(|k| k.to_le_bytes()).collect();
        Self::from_key_bytes(4, key_bytes, dir, deadline)
    }

    /// A width-8 frame carrying `keys`.
    #[must_use]
    pub fn from_u64_keys(keys: &[u64], dir: Direction, deadline: Option<Duration>) -> Self {
        let key_bytes = keys.iter().flat_map(|k| k.to_le_bytes()).collect();
        Self::from_key_bytes(8, key_bytes, dir, deadline)
    }

    /// A width-16 frame carrying `keys`.
    #[must_use]
    pub fn from_u128_keys(keys: &[u128], dir: Direction, deadline: Option<Duration>) -> Self {
        let key_bytes = keys.iter().flat_map(|k| k.to_le_bytes()).collect();
        Self::from_key_bytes(16, key_bytes, dir, deadline)
    }

    /// This frame with a payload section: `stride` bytes per key.
    ///
    /// # Panics
    /// Panics if `payload.len() != stride * count()`.
    #[must_use]
    pub fn with_payload(mut self, stride: u32, payload: Vec<u8>) -> Self {
        assert_eq!(
            payload.len(),
            stride as usize * self.count(),
            "payload must hold exactly stride bytes per key"
        );
        self.payload_stride = stride;
        self.payload = payload;
        self
    }

    /// Number of keys in the frame.
    #[must_use]
    pub fn count(&self) -> usize {
        self.key_bytes.len() / usize::from(self.width.max(1))
    }

    /// The keys as `u32`s, when the frame is width 4.
    #[must_use]
    pub fn keys_u32(&self) -> Option<Vec<u32>> {
        if self.width != 4 {
            return None;
        }
        Some(
            self.key_bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect(),
        )
    }

    /// The keys as `u64`s, when the frame is width 8.
    #[must_use]
    pub fn keys_u64(&self) -> Option<Vec<u64>> {
        if self.width != 8 {
            return None;
        }
        Some(
            self.key_bytes
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                .collect(),
        )
    }

    /// The keys as `u128`s, when the frame is width 16.
    #[must_use]
    pub fn keys_u128(&self) -> Option<Vec<u128>> {
        if self.width != 16 {
            return None;
        }
        Some(
            self.key_bytes
                .chunks_exact(16)
                .map(|c| u128::from_le_bytes(c.try_into().expect("16 bytes")))
                .collect(),
        )
    }

    /// The deadline this frame carries, `None` for "server default".
    #[must_use]
    pub fn deadline(&self) -> Option<Duration> {
        (self.deadline_us > 0).then(|| Duration::from_micros(self.deadline_us))
    }

    /// True when the frame must ride the record path: it is wider than
    /// the legacy `u32` format, or it carries a payload.
    #[must_use]
    pub fn is_record(&self) -> bool {
        self.width != 4 || self.payload_stride > 0
    }

    /// Convert into the service's [`SortRequest`] — the legacy plain
    /// path, width 4 and no payload.
    ///
    /// # Errors
    /// [`FrameError::BadWidth`] unless the frame is width 4;
    /// [`FrameError::PayloadMismatch`] when it carries a payload (a
    /// payload frame must convert via
    /// [`RequestFrame::into_record_request`]).
    pub fn into_request(self) -> Result<SortRequest, FrameError> {
        if self.payload_stride > 0 {
            return Err(FrameError::PayloadMismatch {
                declared: 0,
                body_bytes: self.payload.len(),
            });
        }
        let Some(keys) = self.keys_u32() else {
            return Err(FrameError::BadWidth(self.width));
        };
        Ok(SortRequest {
            keys,
            dir: self.dir,
            deadline: self.deadline(),
        })
    }

    /// Convert into the service's [`RecordRequest`]: widths 4, 8 and 16
    /// with an optional payload.
    ///
    /// # Errors
    /// [`FrameError::BadWidth`] for widths 1 and 2 — the codec
    /// round-trips them, but the serving stack does not sort them.
    ///
    /// # Panics
    /// Panics if the frame's payload length is not `stride * count()`
    /// (decoded frames always satisfy this; hand-built frames must use
    /// [`RequestFrame::with_payload`]).
    pub fn into_record_request(self) -> Result<RecordRequest, FrameError> {
        let keys = match self.width {
            4 => RecordKeys::U32(self.keys_u32().expect("width 4")),
            8 => RecordKeys::U64(self.keys_u64().expect("width 8")),
            16 => RecordKeys::U128(self.keys_u128().expect("width 16")),
            w => return Err(FrameError::BadWidth(w)),
        };
        let deadline = self.deadline();
        let request =
            RecordRequest::new(keys, self.payload, self.payload_stride as usize, self.dir);
        Ok(match deadline {
            Some(d) => request.with_deadline(d),
            None => request,
        })
    }

    /// Encode as a complete frame (length prefix included).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let has_payload = self.payload_stride > 0;
        let payload_section = if has_payload {
            4 + self.payload.len()
        } else {
            0
        };
        let total = REQUEST_HEADER + self.key_bytes.len() + payload_section;
        let mut out = Vec::with_capacity(LEN_PREFIX + total);
        out.extend_from_slice(&(total as u32).to_le_bytes());
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        let mut flags = match self.dir {
            Direction::Ascending => 0,
            Direction::Descending => FLAG_DESCENDING,
        };
        if has_payload {
            flags |= FLAG_PAYLOAD;
        }
        out.push(flags);
        out.push(self.width);
        out.push(0); // reserved
        out.extend_from_slice(&self.deadline_us.to_le_bytes());
        out.extend_from_slice(&(self.count() as u32).to_le_bytes());
        out.extend_from_slice(&self.key_bytes);
        if has_payload {
            out.extend_from_slice(&self.payload_stride.to_le_bytes());
            out.extend_from_slice(&self.payload);
        }
        out
    }

    /// Decode a frame payload (everything after the length prefix).
    ///
    /// # Errors
    /// The [`FrameError`] naming the first malformation found.
    pub fn decode(payload: &[u8]) -> Result<RequestFrame, FrameError> {
        if payload.len() < REQUEST_HEADER {
            return Err(FrameError::Truncated {
                needed: REQUEST_HEADER,
                have: payload.len(),
            });
        }
        let magic: [u8; 4] = payload[0..4].try_into().expect("4 bytes");
        if magic != MAGIC {
            return Err(FrameError::BadMagic(magic));
        }
        if payload[4] != VERSION {
            return Err(FrameError::BadVersion(payload[4]));
        }
        let flags = payload[5];
        if flags & !FLAG_MASK != 0 {
            return Err(FrameError::BadFlags(flags));
        }
        let width = payload[6];
        if !SUPPORTED_WIDTHS.contains(&width) {
            return Err(FrameError::BadWidth(width));
        }
        let deadline_us = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
        let count = u32::from_le_bytes(payload[16..20].try_into().expect("4 bytes")) as usize;
        let body = &payload[REQUEST_HEADER..];
        let key_len = declared_len(count as u64, u64::from(width));
        let has_payload = flags & FLAG_PAYLOAD != 0;
        if !has_payload && body.len() != key_len {
            return Err(FrameError::CountMismatch {
                declared: count,
                body_bytes: body.len(),
            });
        }
        if has_payload && body.len() < key_len.saturating_add(4) {
            // The keys (or the stride word itself) are cut short.
            return Err(FrameError::PayloadMismatch {
                declared: key_len.saturating_add(4),
                body_bytes: body.len(),
            });
        }
        let (payload_stride, rows) = if has_payload {
            let stride =
                u32::from_le_bytes(body[key_len..key_len + 4].try_into().expect("4 bytes"));
            let rows = &body[key_len + 4..];
            let rows_len = declared_len(count as u64, u64::from(stride));
            if rows.len() != rows_len {
                return Err(FrameError::PayloadMismatch {
                    declared: rows_len,
                    body_bytes: rows.len(),
                });
            }
            (stride, rows.to_vec())
        } else {
            (0, Vec::new())
        };
        Ok(RequestFrame {
            dir: if flags & FLAG_DESCENDING != 0 {
                Direction::Descending
            } else {
                Direction::Ascending
            },
            width,
            deadline_us,
            key_bytes: body[..key_len].to_vec(),
            payload_stride,
            payload: rows,
        })
    }
}

/// Reply status codes on the wire.
mod status {
    pub const OK: u8 = 0;
    pub const CLOSED: u8 = 1;
    pub const TOO_LARGE: u8 = 2;
    pub const QUEUE_FULL: u8 = 3;
    pub const QUEUE_OVERFLOW: u8 = 4;
    pub const DEADLINE_UNMEETABLE: u8 = 5;
    pub const EXPIRED: u8 = 6;
    pub const MACHINE_FAILED: u8 = 7;
    pub const SERVICE_CLOSED: u8 = 8;
    pub const BAD_FRAME: u8 = 9;
    pub const BULK_FAILED: u8 = 10;
    pub const OK_RECORD: u8 = 11;
}

/// One reply frame: the request's outcome, structured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplyFrame {
    /// The sorted keys, in the requested order.
    Sorted(Vec<u32>),
    /// Shed at admission; the [`Rejection`] survives the wire with its
    /// numeric fields and [`Rejection::label`] intact.
    Rejected(Rejection),
    /// Admitted but expired in the queue.
    Expired {
        /// How long the request waited, microseconds.
        waited_us: u64,
        /// The deadline it carried, microseconds.
        deadline_us: u64,
    },
    /// Admitted but its batch failed; the machine's failure message.
    Failed(String),
    /// The service shut down before answering.
    ServiceClosed,
    /// The request frame itself was malformed; carries the error's
    /// [`FrameError::code`]. Sent best-effort before disconnecting.
    BadFrame(u8),
    /// A bulk (over-band) request failed on one shard: the shard index
    /// and the rendered [`crate::BulkFailure`] reason. The connection
    /// stays open — a bulk failure is a structured reply, not a
    /// protocol error.
    BulkFailed {
        /// The shard whose sub-request sank the parent.
        shard: u64,
        /// Human-readable failure reason.
        reason: String,
    },
    /// A sorted record reply: keys in the requested order with payload
    /// row `i` attached to key `i`. The width byte carries the key
    /// width, `detail a` the key count, `detail b` the payload stride.
    Record {
        /// The sorted keys, at their wire width.
        keys: RecordKeys,
        /// Payload rows in key order, `keys.len() * stride` bytes.
        payload: Vec<u8>,
        /// Payload bytes per key.
        stride: u32,
    },
}

impl ReplyFrame {
    /// The reply that reports `err` for an admitted request.
    #[must_use]
    pub fn from_error(err: &SortError) -> Self {
        match err {
            SortError::Expired { waited, deadline } => ReplyFrame::Expired {
                waited_us: waited.as_micros().min(u128::from(u64::MAX)) as u64,
                deadline_us: deadline.as_micros().min(u128::from(u64::MAX)) as u64,
            },
            SortError::MachineFailed(msg) => ReplyFrame::Failed(msg.clone()),
            SortError::ServiceClosed => ReplyFrame::ServiceClosed,
            SortError::Bulk(failure) => ReplyFrame::BulkFailed {
                shard: failure.shard as u64,
                reason: failure.to_string(),
            },
        }
    }

    /// Stable label naming the reply class — `ok`, a
    /// [`Rejection::label`], `expired`, `machine_failed`,
    /// `service_closed`, or `bad_frame`.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ReplyFrame::Sorted(_) => "ok",
            ReplyFrame::Rejected(r) => r.label(),
            ReplyFrame::Expired { .. } => "expired",
            ReplyFrame::Failed(_) => "machine_failed",
            ReplyFrame::ServiceClosed => "service_closed",
            ReplyFrame::BadFrame(_) => "bad_frame",
            ReplyFrame::BulkFailed { .. } => "bulk_failed",
            ReplyFrame::Record { .. } => "ok_record",
        }
    }

    fn status_and_details(&self) -> (u8, u64, u64) {
        match self {
            ReplyFrame::Sorted(keys) => (status::OK, keys.len() as u64, 0),
            ReplyFrame::Rejected(r) => match r {
                Rejection::Closed => (status::CLOSED, 0, 0),
                Rejection::TooLarge { keys, limit } => {
                    (status::TOO_LARGE, *keys as u64, *limit as u64)
                }
                Rejection::QueueFull { queued, limit } => {
                    (status::QUEUE_FULL, *queued as u64, *limit as u64)
                }
                Rejection::QueueOverflow { would_hold, limit } => {
                    (status::QUEUE_OVERFLOW, *would_hold as u64, *limit as u64)
                }
                Rejection::DeadlineUnmeetable {
                    predicted_wait,
                    deadline,
                } => (
                    status::DEADLINE_UNMEETABLE,
                    predicted_wait.as_micros().min(u128::from(u64::MAX)) as u64,
                    deadline.as_micros().min(u128::from(u64::MAX)) as u64,
                ),
            },
            ReplyFrame::Expired {
                waited_us,
                deadline_us,
            } => (status::EXPIRED, *waited_us, *deadline_us),
            ReplyFrame::Failed(msg) => (status::MACHINE_FAILED, msg.len() as u64, 0),
            ReplyFrame::ServiceClosed => (status::SERVICE_CLOSED, 0, 0),
            ReplyFrame::BadFrame(code) => (status::BAD_FRAME, u64::from(*code), 0),
            ReplyFrame::BulkFailed { shard, reason } => {
                (status::BULK_FAILED, *shard, reason.len() as u64)
            }
            ReplyFrame::Record { keys, stride, .. } => {
                (status::OK_RECORD, keys.len() as u64, u64::from(*stride))
            }
        }
    }

    /// Encode as a complete frame (length prefix included).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let (status, a, b) = self.status_and_details();
        let body: Vec<u8> = match self {
            ReplyFrame::Sorted(keys) => keys.iter().flat_map(|k| k.to_le_bytes()).collect(),
            ReplyFrame::Failed(msg) => msg.as_bytes().to_vec(),
            ReplyFrame::BulkFailed { reason, .. } => reason.as_bytes().to_vec(),
            ReplyFrame::Record { keys, payload, .. } => {
                let mut body: Vec<u8> = match keys {
                    RecordKeys::U32(k) => k.iter().flat_map(|k| k.to_le_bytes()).collect(),
                    RecordKeys::U64(k) => k.iter().flat_map(|k| k.to_le_bytes()).collect(),
                    RecordKeys::U128(k) => k.iter().flat_map(|k| k.to_le_bytes()).collect(),
                };
                body.extend_from_slice(payload);
                body
            }
            _ => Vec::new(),
        };
        let width = match self {
            ReplyFrame::Record { keys, .. } => keys.width(),
            _ => 4, // key width of a plain sorted body
        };
        let payload = REPLY_HEADER + body.len();
        let mut out = Vec::with_capacity(LEN_PREFIX + payload);
        out.extend_from_slice(&(payload as u32).to_le_bytes());
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(status);
        out.push(width);
        out.push(0); // reserved
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Decode a reply payload (everything after the length prefix).
    ///
    /// # Errors
    /// The [`FrameError`] naming the first malformation found.
    pub fn decode(payload: &[u8]) -> Result<ReplyFrame, FrameError> {
        if payload.len() < REPLY_HEADER {
            return Err(FrameError::Truncated {
                needed: REPLY_HEADER,
                have: payload.len(),
            });
        }
        let magic: [u8; 4] = payload[0..4].try_into().expect("4 bytes");
        if magic != MAGIC {
            return Err(FrameError::BadMagic(magic));
        }
        if payload[4] != VERSION {
            return Err(FrameError::BadVersion(payload[4]));
        }
        let status_code = payload[5];
        let width = payload[6];
        let a = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
        let b = u64::from_le_bytes(payload[16..24].try_into().expect("8 bytes"));
        let body = &payload[REPLY_HEADER..];
        Ok(match status_code {
            status::OK => {
                if width != 4 {
                    return Err(FrameError::BadWidth(width));
                }
                if body.len() != declared_len(a, 4) {
                    return Err(FrameError::CountMismatch {
                        declared: a as usize,
                        body_bytes: body.len(),
                    });
                }
                ReplyFrame::Sorted(
                    body.chunks_exact(4)
                        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                        .collect(),
                )
            }
            status::CLOSED => ReplyFrame::Rejected(Rejection::Closed),
            status::TOO_LARGE => ReplyFrame::Rejected(Rejection::TooLarge {
                keys: a as usize,
                limit: b as usize,
            }),
            status::QUEUE_FULL => ReplyFrame::Rejected(Rejection::QueueFull {
                queued: a as usize,
                limit: b as usize,
            }),
            status::QUEUE_OVERFLOW => ReplyFrame::Rejected(Rejection::QueueOverflow {
                would_hold: a as usize,
                limit: b as usize,
            }),
            status::DEADLINE_UNMEETABLE => ReplyFrame::Rejected(Rejection::DeadlineUnmeetable {
                predicted_wait: Duration::from_micros(a),
                deadline: Duration::from_micros(b),
            }),
            status::EXPIRED => ReplyFrame::Expired {
                waited_us: a,
                deadline_us: b,
            },
            status::MACHINE_FAILED => {
                if body.len() != declared_len(a, 1) {
                    return Err(FrameError::CountMismatch {
                        declared: a as usize,
                        body_bytes: body.len(),
                    });
                }
                ReplyFrame::Failed(String::from_utf8_lossy(body).into_owned())
            }
            status::SERVICE_CLOSED => ReplyFrame::ServiceClosed,
            status::BAD_FRAME => ReplyFrame::BadFrame(a.min(255) as u8),
            status::BULK_FAILED => {
                if body.len() != declared_len(b, 1) {
                    return Err(FrameError::CountMismatch {
                        declared: b as usize,
                        body_bytes: body.len(),
                    });
                }
                ReplyFrame::BulkFailed {
                    shard: a,
                    reason: String::from_utf8_lossy(body).into_owned(),
                }
            }
            status::OK_RECORD => {
                if !SORTABLE_WIDTHS.contains(&width) {
                    return Err(FrameError::BadWidth(width));
                }
                let row = b.saturating_add(u64::from(width));
                let declared = if b > u64::from(u32::MAX) {
                    usize::MAX
                } else {
                    declared_len(a, row)
                };
                if body.len() != declared {
                    return Err(FrameError::PayloadMismatch {
                        declared,
                        body_bytes: body.len(),
                    });
                }
                let key_len = declared_len(a, u64::from(width));
                let keys = match width {
                    4 => RecordKeys::U32(
                        body[..key_len]
                            .chunks_exact(4)
                            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
                            .collect(),
                    ),
                    8 => RecordKeys::U64(
                        body[..key_len]
                            .chunks_exact(8)
                            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                            .collect(),
                    ),
                    _ => RecordKeys::U128(
                        body[..key_len]
                            .chunks_exact(16)
                            .map(|c| u128::from_le_bytes(c.try_into().expect("16 bytes")))
                            .collect(),
                    ),
                };
                ReplyFrame::Record {
                    keys,
                    payload: body[key_len..].to_vec(),
                    stride: b as u32,
                }
            }
            other => return Err(FrameError::BadStatus(other)),
        })
    }
}

/// The body bytes a header declares: `count * unit`, or `usize::MAX`
/// when that overflows. Every header-derived length goes through here,
/// so a hostile header can never wrap around to match a real body: a
/// body is bounded by its frame (at most `max_frame_bytes` at the
/// server), far below `usize::MAX`.
fn declared_len(count: u64, unit: u64) -> usize {
    count
        .checked_mul(unit)
        .and_then(|n| usize::try_from(n).ok())
        .unwrap_or(usize::MAX)
}

/// Parse one text request line — the stdin frontend's format — into the
/// *same* [`RequestFrame`] the wire decoder produces, so both frontends
/// share one validation path (`bitonic-sort serve` delegates here).
///
/// Grammar: an optional leading `asc`/`desc` token, then any mix of
/// `deadline=<µs>`, `width=<1|2|4|8|16>` (default 4), and
/// `payload=<hex>` tokens, then decimal keys. Keys must fit the width;
/// the payload's byte length must divide evenly by the key count (the
/// quotient becomes the per-key stride).
///
/// # Errors
/// A description of the first malformed token.
pub fn parse_text_request(line: &str) -> Result<RequestFrame, String> {
    let mut dir = Direction::Ascending;
    let mut deadline_us = 0u64;
    let mut width = 4u8;
    let mut payload: Option<Vec<u8>> = None;
    let mut keys: Vec<u128> = Vec::new();
    for (i, tok) in line.split_whitespace().enumerate() {
        match tok {
            "asc" if i == 0 => dir = Direction::Ascending,
            "desc" if i == 0 => dir = Direction::Descending,
            _ => {
                if let Some(us) = tok.strip_prefix("deadline=") {
                    deadline_us = us
                        .parse::<u64>()
                        .map_err(|e| format!("bad deadline '{tok}': {e}"))?;
                } else if let Some(w) = tok.strip_prefix("width=") {
                    width = w
                        .parse::<u8>()
                        .ok()
                        .filter(|w| SUPPORTED_WIDTHS.contains(w))
                        .ok_or_else(|| format!("bad width '{tok}': must be 1, 2, 4, 8 or 16"))?;
                } else if let Some(hex) = tok.strip_prefix("payload=") {
                    payload =
                        Some(parse_hex(hex).map_err(|e| format!("bad payload '{tok}': {e}"))?);
                } else {
                    keys.push(
                        tok.parse::<u128>()
                            .map_err(|e| format!("bad key '{tok}': {e}"))?,
                    );
                }
            }
        }
    }
    let max = if width == 16 {
        u128::MAX
    } else {
        (1u128 << (8 * u32::from(width))) - 1
    };
    let mut key_bytes = Vec::with_capacity(keys.len() * usize::from(width));
    for k in &keys {
        if *k > max {
            return Err(format!("key {k} does not fit width {width}"));
        }
        key_bytes.extend_from_slice(&k.to_le_bytes()[..usize::from(width)]);
    }
    let mut frame = RequestFrame {
        dir,
        width,
        deadline_us,
        key_bytes,
        payload_stride: 0,
        payload: Vec::new(),
    };
    if let Some(rows) = payload {
        if keys.is_empty() {
            return Err("payload requires at least one key".into());
        }
        if rows.len() % keys.len() != 0 {
            return Err(format!(
                "payload length {} does not divide evenly over {} keys",
                rows.len(),
                keys.len()
            ));
        }
        let stride = (rows.len() / keys.len()) as u32;
        if stride > 0 {
            frame = frame.with_payload(stride, rows);
        }
    }
    // Round-trip through the codec so text requests pass the exact
    // validation wire requests do (single source of truth).
    let encoded = frame.encode();
    RequestFrame::decode(&encoded[LEN_PREFIX..]).map_err(|e| format!("invalid request: {e}"))
}

/// Decode a hex string (even length, `[0-9a-fA-F]`) into bytes.
fn parse_hex(hex: &str) -> Result<Vec<u8>, String> {
    if !hex.len().is_multiple_of(2) {
        return Err(format!("odd hex length {}", hex.len()));
    }
    let nibble = |c: u8| -> Result<u8, String> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            other => Err(format!("invalid hex digit '{}'", other as char)),
        }
    };
    hex.as_bytes()
        .chunks_exact(2)
        .map(|pair| Ok(nibble(pair[0])? << 4 | nibble(pair[1])?))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_all_fields() {
        let frame = RequestFrame::from_u32_keys(
            &[5, 1, u32::MAX, 0],
            Direction::Descending,
            Some(Duration::from_micros(1234)),
        );
        let bytes = frame.encode();
        assert_eq!(
            u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize,
            bytes.len() - LEN_PREFIX
        );
        let back = RequestFrame::decode(&bytes[LEN_PREFIX..]).unwrap();
        assert_eq!(back, frame);
        assert_eq!(back.keys_u32().unwrap(), vec![5, 1, u32::MAX, 0]);
        assert_eq!(back.deadline(), Some(Duration::from_micros(1234)));
    }

    #[test]
    fn empty_request_is_a_valid_frame() {
        let frame = RequestFrame::from_u32_keys(&[], Direction::Ascending, None);
        let bytes = frame.encode();
        let back = RequestFrame::decode(&bytes[LEN_PREFIX..]).unwrap();
        assert_eq!(back.count(), 0);
        assert_eq!(back.deadline(), None);
        assert!(back.into_request().unwrap().keys.is_empty());
    }

    #[test]
    fn malformed_requests_decode_to_structured_errors() {
        let good = RequestFrame::from_u32_keys(&[1, 2, 3], Direction::Ascending, None).encode();
        let payload = &good[LEN_PREFIX..];

        let mut bad_magic = payload.to_vec();
        bad_magic[0] = b'X';
        assert!(matches!(
            RequestFrame::decode(&bad_magic),
            Err(FrameError::BadMagic(_))
        ));

        let mut bad_version = payload.to_vec();
        bad_version[4] = 9;
        assert_eq!(
            RequestFrame::decode(&bad_version),
            Err(FrameError::BadVersion(9))
        );

        let mut bad_flags = payload.to_vec();
        bad_flags[5] = 0b1000_0010;
        assert!(matches!(
            RequestFrame::decode(&bad_flags),
            Err(FrameError::BadFlags(_))
        ));

        let mut bad_width = payload.to_vec();
        bad_width[6] = 3;
        assert_eq!(
            RequestFrame::decode(&bad_width),
            Err(FrameError::BadWidth(3))
        );

        assert!(matches!(
            RequestFrame::decode(&payload[..REQUEST_HEADER - 1]),
            Err(FrameError::Truncated { .. })
        ));
        assert!(matches!(
            RequestFrame::decode(&payload[..payload.len() - 1]),
            Err(FrameError::CountMismatch { .. })
        ));
    }

    #[test]
    fn every_rejection_variant_round_trips_with_its_label() {
        let variants = [
            Rejection::Closed,
            Rejection::TooLarge {
                keys: 99,
                limit: 64,
            },
            Rejection::QueueFull {
                queued: 12,
                limit: 8,
            },
            Rejection::QueueOverflow {
                would_hold: 5000,
                limit: 4096,
            },
            Rejection::DeadlineUnmeetable {
                predicted_wait: Duration::from_micros(777),
                deadline: Duration::from_micros(5),
            },
        ];
        for r in variants {
            let reply = ReplyFrame::Rejected(r.clone());
            let bytes = reply.encode();
            let back = ReplyFrame::decode(&bytes[LEN_PREFIX..]).unwrap();
            assert_eq!(back, ReplyFrame::Rejected(r.clone()));
            assert_eq!(back.label(), r.label());
        }
    }

    #[test]
    fn sorted_failed_and_error_replies_round_trip() {
        for reply in [
            ReplyFrame::Sorted(vec![1, 2, 3, u32::MAX]),
            ReplyFrame::Sorted(vec![]),
            ReplyFrame::Expired {
                waited_us: 1000,
                deadline_us: 500,
            },
            ReplyFrame::Failed("rank 2 stalled".into()),
            ReplyFrame::ServiceClosed,
            ReplyFrame::BadFrame(FrameError::BadMagic(*b"nope").code()),
            ReplyFrame::BulkFailed {
                shard: 3,
                reason: "bulk partition on shard 3 was shed: queue full".into(),
            },
        ] {
            let bytes = reply.encode();
            let back = ReplyFrame::decode(&bytes[LEN_PREFIX..]).unwrap();
            assert_eq!(back, reply);
        }
    }

    #[test]
    fn record_request_frames_round_trip_every_width_with_payload() {
        let payload: Vec<u8> = (0u8..12).collect();
        for frame in [
            RequestFrame::from_u32_keys(&[7, 1, 9], Direction::Ascending, None)
                .with_payload(4, payload.clone()),
            RequestFrame::from_u64_keys(&[u64::MAX, 0, 5], Direction::Descending, None)
                .with_payload(4, payload.clone()),
            RequestFrame::from_u128_keys(&[1 << 90, 2, 3], Direction::Ascending, None)
                .with_payload(4, payload.clone()),
            RequestFrame::from_u64_keys(&[1, 2], Direction::Ascending, None),
        ] {
            let bytes = frame.encode();
            let back = RequestFrame::decode(&bytes[LEN_PREFIX..]).unwrap();
            assert_eq!(back, frame);
        }
        let frame = RequestFrame::from_u64_keys(&[9, 2], Direction::Descending, None)
            .with_payload(2, vec![1, 2, 3, 4]);
        let req = frame.into_record_request().unwrap();
        assert_eq!(req.stride, 2);
        assert_eq!(req.payload, vec![1, 2, 3, 4]);
        assert_eq!(req.dir, Direction::Descending);
    }

    #[test]
    fn narrow_widths_decode_but_are_refused_as_record_requests() {
        for width in [1u8, 2] {
            let frame = RequestFrame {
                dir: Direction::Ascending,
                width,
                deadline_us: 0,
                key_bytes: vec![0; usize::from(width) * 3],
                payload_stride: 0,
                payload: Vec::new(),
            };
            let back = RequestFrame::decode(&frame.encode()[LEN_PREFIX..]).unwrap();
            assert!(back.is_record());
            assert_eq!(
                back.into_record_request().unwrap_err(),
                FrameError::BadWidth(width)
            );
        }
    }

    #[test]
    fn malformed_payload_sections_decode_to_structured_errors() {
        let good = RequestFrame::from_u32_keys(&[1, 2], Direction::Ascending, None)
            .with_payload(3, vec![9; 6])
            .encode();
        let payload = &good[LEN_PREFIX..];

        // Truncated mid-payload: the row bytes fall short of count*stride.
        assert!(matches!(
            RequestFrame::decode(&payload[..payload.len() - 2]),
            Err(FrameError::PayloadMismatch { .. })
        ));
        // Truncated before the stride word completes.
        assert!(matches!(
            RequestFrame::decode(&payload[..REQUEST_HEADER + 8 + 2]),
            Err(FrameError::PayloadMismatch { .. })
        ));
        // Stride word inflated: declared bytes exceed what is present.
        let mut inflated = payload.to_vec();
        inflated[REQUEST_HEADER + 8] = 200;
        assert_eq!(
            RequestFrame::decode(&inflated),
            Err(FrameError::PayloadMismatch {
                declared: 400,
                body_bytes: 6,
            })
        );
        assert_eq!(
            FrameError::PayloadMismatch {
                declared: 400,
                body_bytes: 6
            }
            .label(),
            "payload_mismatch"
        );
        // A payload frame cannot ride the legacy plain conversion.
        let frame = RequestFrame::decode(payload).unwrap();
        assert!(frame.into_request().is_err());
    }

    #[test]
    fn record_replies_round_trip_for_every_width() {
        for keys in [
            RecordKeys::U32(vec![1, 2, 3]),
            RecordKeys::U64(vec![u64::MAX, 0, 7]),
            RecordKeys::U128(vec![1 << 100, 1, 2]),
        ] {
            let reply = ReplyFrame::Record {
                keys,
                payload: vec![5, 6, 7, 8, 9, 10],
                stride: 2,
            };
            let bytes = reply.encode();
            let back = ReplyFrame::decode(&bytes[LEN_PREFIX..]).unwrap();
            assert_eq!(back, reply);
            assert_eq!(back.label(), "ok_record");
        }
        // Empty record reply (n=0) is valid too.
        let reply = ReplyFrame::Record {
            keys: RecordKeys::U64(vec![]),
            payload: vec![],
            stride: 16,
        };
        let back = ReplyFrame::decode(&reply.encode()[LEN_PREFIX..]).unwrap();
        assert_eq!(back, reply);
    }

    #[test]
    fn text_parsing_accepts_width_and_payload_tokens() {
        let frame = parse_text_request("desc width=8 payload=0a0b0c0d 300 100").unwrap();
        assert_eq!(frame.width, 8);
        assert_eq!(frame.keys_u64().unwrap(), vec![300, 100]);
        assert_eq!(frame.payload_stride, 2);
        assert_eq!(frame.payload, vec![0x0a, 0x0b, 0x0c, 0x0d]);

        let frame = parse_text_request("width=16 340282366920938463463374607431768211455").unwrap();
        assert_eq!(frame.keys_u128().unwrap(), vec![u128::MAX]);

        // Keys must fit the width; payload must divide evenly; hex must
        // be well-formed.
        assert!(parse_text_request("width=4 4294967296").is_err());
        assert!(parse_text_request("width=3 1 2").is_err());
        assert!(parse_text_request("payload=abcd 1 2 3").is_err());
        assert!(parse_text_request("payload=xyz 1").is_err());
        assert!(parse_text_request("payload=abc 1").is_err());
        assert!(parse_text_request("payload=ab").is_err());
        // width=1/2 parse (the codec supports them) — conversion refuses.
        let frame = parse_text_request("width=2 9 4").unwrap();
        assert_eq!(
            frame.into_record_request().unwrap_err(),
            FrameError::BadWidth(2)
        );
    }

    #[test]
    fn text_parsing_shares_the_wire_validation_path() {
        let frame = parse_text_request("desc 9 3 7").unwrap();
        assert_eq!(frame.dir, Direction::Descending);
        assert_eq!(frame.keys_u32().unwrap(), vec![9, 3, 7]);
        let frame = parse_text_request("deadline=250 1 2").unwrap();
        assert_eq!(frame.deadline(), Some(Duration::from_micros(250)));
        assert!(parse_text_request("1 2 nope").is_err());
        assert!(parse_text_request("deadline=abc 1").is_err());
        // A mid-line 'asc' is a malformed key, exactly as before.
        assert!(parse_text_request("1 asc 2").is_err());
    }
}
