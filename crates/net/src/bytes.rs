//! A minimal immutable byte buffer (stand-in for the `bytes` crate).

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply cloneable, immutable slice of bytes.
///
/// Backed by an `Arc<[u8]>`, so cloning a frame (or a
/// [`Message`](crate::Message)) shares the underlying storage instead of
/// copying it — what lets one encoded frame fan out to several backups
/// and to duplicate deliveries.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct Bytes {
    data: Arc<[u8]>,
}

impl Bytes {
    /// Creates a buffer by copying the given slice.
    #[must_use]
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes { data: data.into() }
    }

    /// Length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes { data: data.into() }
    }
}

impl From<&[u8]> for Bytes {
    fn from(data: &[u8]) -> Self {
        Bytes::copy_from_slice(data)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.data, f)
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_shares() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        let c = b.clone();
        assert_eq!(b, c);
        assert_eq!(b.as_ref(), &[1, 2, 3]);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert!(Bytes::default().is_empty());
    }

    #[test]
    fn deref_gives_slice_methods() {
        let b = Bytes::copy_from_slice(b"abc");
        assert_eq!(&b[1..], b"bc");
        assert!(b.starts_with(b"ab"));
    }
}
