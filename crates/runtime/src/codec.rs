//! Canonical deterministic byte encoding.
//!
//! [`Encode`] / [`Decode`] give every chain-visible type (blocks,
//! transactions, ledger state, audit records, EMR payloads) **one**
//! serialization story: a fixed, platform-independent byte layout the
//! hashing and wire layers can rely on.
//!
//! ## Layout rules
//!
//! - Integers: little-endian, fixed width; `usize` travels as `u64`.
//! - `f64`/`f32`: IEEE-754 bit patterns, little-endian.
//! - `bool`: one byte, strictly `0` or `1`.
//! - `String` / `Vec<T>` / maps: `u32` little-endian length prefix, then
//!   elements in order (map entries in `BTreeMap` key order — canonical).
//! - `Option<T>`: one tag byte (`0` = `None`, `1` = `Some`), then the value.
//! - `[u8; N]`: raw bytes, no prefix.
//! - Structs: fields in declaration order. Enums: one tag byte, then the
//!   variant's fields in order.
//!
//! ## Laws
//!
//! For every `T: Encode + Decode` and value `v`:
//!
//! 1. **Round trip**: `T::decoded(&v.encoded()) == Ok(v)`.
//! 2. **Canonical**: equal values encode to identical bytes (there is no
//!    alternative accepted spelling — decoding is strict and
//!    [`Decode::decoded`] rejects trailing bytes).
//! 3. **Prefix-free per type**: a decoder consumes exactly the bytes its
//!    encoder produced, so concatenated encodings decode unambiguously.
//!
//! Implement the traits for your types with [`impl_codec_struct!`],
//! [`impl_codec_unit_enum!`], or by hand for data-carrying enums.

use std::collections::BTreeMap;
use std::fmt;

/// Why decoding failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was complete.
    UnexpectedEnd,
    /// An enum tag byte had no matching variant.
    InvalidTag {
        /// The type being decoded.
        ty: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A length prefix exceeded the remaining input.
    LengthOverrun {
        /// Declared element count.
        declared: u64,
        /// Remaining input bytes.
        remaining: usize,
    },
    /// A `bool` byte was neither 0 nor 1.
    InvalidBool(u8),
    /// A `String` payload was not valid UTF-8.
    InvalidUtf8,
    /// A numeric value did not fit the target type on this platform.
    IntegerOverflow,
    /// Decoding finished with unconsumed trailing bytes.
    TrailingBytes(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEnd => write!(f, "input ended mid-value"),
            CodecError::InvalidTag { ty, tag } => write!(f, "invalid tag {tag} for {ty}"),
            CodecError::LengthOverrun { declared, remaining } => {
                write!(f, "declared length {declared} exceeds remaining {remaining} bytes")
            }
            CodecError::InvalidBool(b) => write!(f, "invalid bool byte {b}"),
            CodecError::InvalidUtf8 => write!(f, "string payload is not UTF-8"),
            CodecError::IntegerOverflow => write!(f, "integer does not fit target type"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A strict cursor over an input buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps `buf` for decoding.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEnd);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Consumes one byte.
    pub fn take_byte(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Errors unless the whole input was consumed.
    pub fn finish(self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError::TrailingBytes(n)),
        }
    }
}

/// Canonical byte encoding.
pub trait Encode {
    /// Appends this value's canonical bytes to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// This value's canonical bytes as a fresh buffer.
    fn encoded(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }
}

/// Canonical byte decoding (strict inverse of [`Encode`]).
pub trait Decode: Sized {
    /// Decodes one value from the cursor, consuming exactly the bytes
    /// the encoder produced.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Decodes a value that must span the entire input.
    fn decoded(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let value = Self::decode(&mut r)?;
        r.finish()?;
        Ok(value)
    }
}

macro_rules! int_codec {
    ($($t:ty),* $(,)?) => {$(
        impl Encode for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
        impl Decode for $t {
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                let bytes = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("exact take")))
            }
        }
    )*};
}

int_codec!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128);

impl Encode for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
}

impl Decode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        usize::try_from(u64::decode(r)?).map_err(|_| CodecError::IntegerOverflow)
    }
}

impl Encode for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
}

impl Decode for f64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

impl Encode for f32 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
}

impl Decode for f32 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(f32::from_bits(u32::decode(r)?))
    }
}

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take_byte()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError::InvalidBool(b)),
        }
    }
}

fn encode_len(len: usize, out: &mut Vec<u8>) {
    u32::try_from(len).expect("collection length exceeds u32").encode(out);
}

fn decode_len(r: &mut Reader<'_>) -> Result<usize, CodecError> {
    let declared = u32::decode(r)? as u64;
    // Each element consumes at least one byte for all element types the
    // workspace encodes, so a declared count beyond the remaining input
    // is always corrupt; rejecting it here bounds allocations.
    if declared > r.remaining() as u64 {
        return Err(CodecError::LengthOverrun { declared, remaining: r.remaining() });
    }
    Ok(declared as usize)
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_len(self.len(), out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = decode_len(r)?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::InvalidUtf8)
    }
}

impl Encode for str {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_len(self.len(), out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_len(self.len(), out);
        for item in self {
            item.encode(out);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = decode_len(r)?;
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(T::decode(r)?);
        }
        Ok(items)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take_byte()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(CodecError::InvalidTag { ty: "Option", tag }),
        }
    }
}

impl<T: Encode> Encode for std::collections::BTreeSet<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_len(self.len(), out);
        for item in self {
            item.encode(out);
        }
    }
}

impl<T: Decode + Ord> Decode for std::collections::BTreeSet<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = decode_len(r)?;
        let mut set = std::collections::BTreeSet::new();
        for _ in 0..len {
            set.insert(T::decode(r)?);
        }
        Ok(set)
    }
}

impl<K: Encode, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_len(self.len(), out);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = decode_len(r)?;
        let mut entries = Vec::with_capacity(len);
        for _ in 0..len {
            entries.push((K::decode(r)?, V::decode(r)?));
        }
        // Canonical input is sorted, so this is a bulk build: several
        // times faster than one insert per entry on a snapshot's
        // accounts. Unsorted or repeated keys give what inserting in
        // order would (a stable sort, the last value of a key wins).
        Ok(entries.into_iter().collect())
    }
}

impl<const N: usize> Encode for [u8; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
}

impl<const N: usize> Decode for [u8; N] {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let bytes = r.take(N)?;
        Ok(bytes.try_into().expect("exact take"))
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
}

/// Implements [`Encode`] + [`Decode`] for a struct with named fields,
/// in the listed (declaration) order.
///
/// ```
/// # use medchain_runtime::impl_codec_struct;
/// # use medchain_runtime::codec::{Encode, Decode};
/// #[derive(Debug, PartialEq)]
/// pub struct Header { pub height: u64, pub tag: String }
/// impl_codec_struct!(Header { height, tag });
/// let h = Header { height: 9, tag: "x".into() };
/// assert_eq!(Header::decoded(&h.encoded()).unwrap(), h);
/// ```
#[macro_export]
macro_rules! impl_codec_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::codec::Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $( $crate::codec::Encode::encode(&self.$field, out); )+
            }
        }
        impl $crate::codec::Decode for $ty {
            fn decode(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                Ok($ty { $( $field: $crate::codec::Decode::decode(r)?, )+ })
            }
        }
    };
}

/// Implements [`Encode`] + [`Decode`] for a fieldless enum as a single
/// tag byte (the listed order fixes the tags: first variant = 0).
#[macro_export]
macro_rules! impl_codec_unit_enum {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::codec::Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                let mut tag: u8 = 0;
                $(
                    if matches!(self, $ty::$variant) {
                        out.push(tag);
                        return;
                    }
                    #[allow(unused_assignments)]
                    { tag += 1; }
                )+
                unreachable!("variant not listed in impl_codec_unit_enum");
            }
        }
        impl $crate::codec::Decode for $ty {
            fn decode(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                let got = r.take_byte()?;
                let mut tag: u8 = 0;
                $(
                    if got == tag {
                        return Ok($ty::$variant);
                    }
                    #[allow(unused_assignments)]
                    { tag += 1; }
                )+
                Err($crate::codec::CodecError::InvalidTag {
                    ty: stringify!($ty),
                    tag: got,
                })
            }
        }
    };
}

/// Implements [`Encode`] + [`Decode`] for an enum whose variants carry
/// named fields, tuple fields (give each a binding name), or no fields,
/// with explicit tag bytes.
///
/// ```
/// # use medchain_runtime::impl_codec_enum;
/// # use medchain_runtime::codec::{Encode, Decode};
/// #[derive(Debug, PartialEq)]
/// pub enum Seal {
///     Genesis,
///     Authority { proposer: u64, votes: Vec<u64> },
///     Raw(Vec<u8>),
/// }
/// impl_codec_enum!(Seal {
///     0 => Genesis,
///     1 => Authority { proposer, votes },
///     2 => Raw(bytes),
/// });
/// let s = Seal::Authority { proposer: 4, votes: vec![1, 2] };
/// assert_eq!(Seal::decoded(&s.encoded()).unwrap(), s);
/// ```
#[macro_export]
macro_rules! impl_codec_enum {
    ($ty:ident {
        $($tag:literal => $variant:ident
            $(( $($tfield:ident),* $(,)? ))?
            $({ $($field:ident),* $(,)? })?
        ),+ $(,)?
    }) => {
        impl $crate::codec::Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $(
                        $ty::$variant $(( $($tfield),* ))? $({ $($field),* })? => {
                            out.push($tag);
                            $( $( $crate::codec::Encode::encode($tfield, out); )* )?
                            $( $( $crate::codec::Encode::encode($field, out); )* )?
                        }
                    )+
                }
            }
        }
        impl $crate::codec::Decode for $ty {
            fn decode(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                match r.take_byte()? {
                    $(
                        $tag => Ok($ty::$variant
                            $(( $({
                                let _ = stringify!($tfield);
                                $crate::codec::Decode::decode(r)?
                            }),* ))?
                            $({ $( $field: $crate::codec::Decode::decode(r)?, )* })?
                        ),
                    )+
                    tag => Err($crate::codec::CodecError::InvalidTag {
                        ty: stringify!($ty),
                        tag,
                    }),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        assert_eq!(T::decoded(&v.encoded()).unwrap(), v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u64::MAX);
        round_trip(-1i64);
        round_trip(3.25f64);
        round_trip(true);
        round_trip(String::from("héllo"));
        round_trip(vec![1u32, 2, 3]);
        round_trip(Option::<u64>::None);
        round_trip(Some(9u64));
        round_trip([7u8; 32]);
        round_trip(usize::MAX / 2);
        round_trip((4u8, String::from("pair")));
        let mut map = BTreeMap::new();
        map.insert("a".to_string(), 1u64);
        map.insert("b".to_string(), 2u64);
        round_trip(map);
    }

    #[test]
    fn decoding_is_strict() {
        // Trailing byte rejected.
        let mut bytes = 7u64.encoded();
        bytes.push(0);
        assert_eq!(u64::decoded(&bytes), Err(CodecError::TrailingBytes(1)));
        // Truncation rejected.
        assert_eq!(u64::decoded(&[1, 2, 3]), Err(CodecError::UnexpectedEnd));
        // Bad bool byte rejected.
        assert_eq!(bool::decoded(&[2]), Err(CodecError::InvalidBool(2)));
        // Oversized length prefix rejected without allocation.
        let bytes = u32::MAX.encoded();
        assert!(matches!(
            Vec::<u8>::decoded(&bytes),
            Err(CodecError::LengthOverrun { .. })
        ));
        // Bad UTF-8 rejected.
        let mut bytes = Vec::new();
        encode_len(2, &mut bytes);
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(String::decoded(&bytes), Err(CodecError::InvalidUtf8));
    }

    #[test]
    fn encoding_is_canonical() {
        // Equal values produce identical bytes (maps iterate in key order).
        let mut a = BTreeMap::new();
        a.insert(2u64, "two".to_string());
        a.insert(1u64, "one".to_string());
        let mut b = BTreeMap::new();
        b.insert(1u64, "one".to_string());
        b.insert(2u64, "two".to_string());
        assert_eq!(a.encoded(), b.encoded());
    }

    #[test]
    fn a_map_decodes_unsorted_or_repeated_keys_as_inserting_in_order() {
        // Entries (3, 30), (1, 10), (3, 31), (2, 20): not canonical bytes,
        // but they decode to what inserting them in turn would build.
        let mut bytes = Vec::new();
        encode_len(4, &mut bytes);
        for (k, v) in [(3u8, 30u8), (1, 10), (3, 31), (2, 20)] {
            bytes.extend_from_slice(&[k, v]);
        }
        let mut inserted = BTreeMap::new();
        for (k, v) in [(3u8, 30u8), (1, 10), (3, 31), (2, 20)] {
            inserted.insert(k, v);
        }
        assert_eq!(BTreeMap::<u8, u8>::decoded(&bytes), Ok(inserted));
    }

    #[derive(Debug, PartialEq)]
    struct Demo {
        id: u64,
        name: String,
        tags: Vec<u8>,
    }
    impl_codec_struct!(Demo { id, name, tags });

    #[derive(Debug, PartialEq)]
    enum Kind {
        Alpha,
        Beta,
        Gamma,
    }
    impl_codec_unit_enum!(Kind { Alpha, Beta, Gamma });

    #[derive(Debug, PartialEq)]
    enum Payload {
        Empty,
        Move { to: u64, amount: u64 },
        Blob(Vec<u8>, bool),
    }
    impl_codec_enum!(Payload {
        0 => Empty,
        1 => Move { to, amount },
        2 => Blob(data, sealed),
    });

    #[test]
    fn derive_macros_round_trip() {
        round_trip(Demo { id: 7, name: "n".into(), tags: vec![1, 2] });
        round_trip(Kind::Alpha);
        round_trip(Kind::Gamma);
        round_trip(Payload::Empty);
        round_trip(Payload::Move { to: 3, amount: 10 });
        round_trip(Payload::Blob(vec![1, 2, 3], true));
        round_trip(std::collections::BTreeSet::from([3u64, 1, 2]));
        assert!(matches!(
            Kind::decoded(&[9]),
            Err(CodecError::InvalidTag { ty: "Kind", tag: 9 })
        ));
    }

    #[test]
    fn concatenated_values_decode_unambiguously() {
        let mut bytes = Vec::new();
        Demo { id: 1, name: "a".into(), tags: vec![] }.encode(&mut bytes);
        Demo { id: 2, name: "b".into(), tags: vec![9] }.encode(&mut bytes);
        let mut r = Reader::new(&bytes);
        assert_eq!(Demo::decode(&mut r).unwrap().id, 1);
        assert_eq!(Demo::decode(&mut r).unwrap().id, 2);
        r.finish().unwrap();
    }
}
