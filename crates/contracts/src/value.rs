//! The VM's value model and the call-data codec.
//!
//! Contracts operate on a stack of [`Value`]s — signed integers and byte
//! strings. Call data is a length-prefixed sequence of values encoded
//! with [`encode_args`]/[`decode_args`]; the same codec carries return
//! data and event payloads, so every layer of the system (oracle, query
//! engine, analytics) speaks one format — the "standard format" the
//! paper's monitor node returns to smart contracts (§III-A).

use medchain_chain::Address;
use std::fmt;

/// A VM stack value.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// Signed 64-bit integer.
    Int(i64),
    /// Arbitrary byte string (addresses, hashes, labels, blobs).
    Bytes(Vec<u8>),
}

impl Value {
    /// Convenience constructor for UTF-8 strings.
    pub fn str(s: &str) -> Value {
        Value::Bytes(s.as_bytes().to_vec())
    }

    /// Convenience constructor for addresses.
    pub fn address(addr: &Address) -> Value {
        Value::Bytes(addr.0.to_vec())
    }

    /// Reads the value as an integer.
    ///
    /// # Errors
    ///
    /// Returns [`ValueError::TypeMismatch`] if the value is bytes.
    pub fn as_int(&self) -> Result<i64, ValueError> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Bytes(_) => Err(ValueError::TypeMismatch { expected: "int", got: "bytes" }),
        }
    }

    /// Reads the value as a byte slice.
    ///
    /// # Errors
    ///
    /// Returns [`ValueError::TypeMismatch`] if the value is an integer.
    pub fn as_bytes(&self) -> Result<&[u8], ValueError> {
        match self {
            Value::Bytes(b) => Ok(b),
            Value::Int(_) => Err(ValueError::TypeMismatch { expected: "bytes", got: "int" }),
        }
    }

    /// Reads the value as a UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`ValueError::TypeMismatch`] on integers and
    /// [`ValueError::BadUtf8`] on invalid UTF-8.
    pub fn as_str(&self) -> Result<&str, ValueError> {
        std::str::from_utf8(self.as_bytes()?).map_err(|_| ValueError::BadUtf8)
    }

    /// Reads the value as a 20-byte address.
    ///
    /// # Errors
    ///
    /// Returns [`ValueError::TypeMismatch`] on integers and
    /// [`ValueError::BadAddress`] on wrong lengths.
    pub fn as_address(&self) -> Result<Address, ValueError> {
        let bytes = self.as_bytes()?;
        let arr: [u8; 20] = bytes.try_into().map_err(|_| ValueError::BadAddress)?;
        Ok(Address(arr))
    }

    /// Whether the value is "truthy" (non-zero int or non-empty bytes).
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Int(i) => *i != 0,
            Value::Bytes(b) => !b.is_empty(),
        }
    }

    /// Serialized size in bytes.
    fn encoded_len(&self) -> usize {
        match self {
            Value::Int(_) => 9,
            Value::Bytes(b) => 5 + b.len(),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<Vec<u8>> for Value {
    fn from(b: Vec<u8>) -> Value {
        Value::Bytes(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::str(s)
    }
}

impl From<Address> for Value {
    fn from(a: Address) -> Value {
        Value::Bytes(a.0.to_vec())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Bytes(b) => match std::str::from_utf8(b) {
                Ok(s) if s.chars().all(|c| !c.is_control()) => write!(f, "{s:?}"),
                _ => write!(f, "0x{}", b.iter().map(|x| format!("{x:02x}")).collect::<String>()),
            },
        }
    }
}

/// Errors from value access and decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueError {
    /// Value had the wrong variant.
    TypeMismatch {
        /// What the caller wanted.
        expected: &'static str,
        /// What the value was.
        got: &'static str,
    },
    /// Bytes were not valid UTF-8.
    BadUtf8,
    /// Bytes were not a 20-byte address.
    BadAddress,
    /// Encoded buffer was truncated or malformed.
    BadEncoding,
    /// Argument index out of range.
    MissingArg(usize),
}

impl fmt::Display for ValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueError::TypeMismatch { expected, got } => {
                write!(f, "expected {expected}, got {got}")
            }
            ValueError::BadUtf8 => f.write_str("invalid utf-8 in bytes value"),
            ValueError::BadAddress => f.write_str("bytes value is not a 20-byte address"),
            ValueError::BadEncoding => f.write_str("malformed value encoding"),
            ValueError::MissingArg(i) => write!(f, "missing call argument {i}"),
        }
    }
}

impl std::error::Error for ValueError {}

/// Encodes a value sequence (call data / return data / event payload).
pub fn encode_args(args: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + args.iter().map(Value::encoded_len).sum::<usize>());
    out.extend_from_slice(&(args.len() as u32).to_le_bytes());
    for arg in args {
        match arg {
            Value::Int(i) => {
                out.push(0);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Bytes(b) => {
                out.push(1);
                out.extend_from_slice(&(b.len() as u32).to_le_bytes());
                out.extend_from_slice(b);
            }
        }
    }
    out
}

/// Decodes a value sequence produced by [`encode_args`].
///
/// # Errors
///
/// Returns [`ValueError::BadEncoding`] on truncation or unknown tags.
pub fn decode_args(mut data: &[u8]) -> Result<Vec<Value>, ValueError> {
    let count = read_u32(&mut data)? as usize;
    if count > data.len() {
        // Each value needs at least 1 byte; cheap sanity bound.
        return Err(ValueError::BadEncoding);
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let tag = read_u8(&mut data)?;
        match tag {
            0 => {
                let bytes = read_exact(&mut data, 8)?;
                out.push(Value::Int(i64::from_le_bytes(bytes.try_into().expect("8 bytes"))));
            }
            1 => {
                let len = read_u32(&mut data)? as usize;
                out.push(Value::Bytes(read_exact(&mut data, len)?.to_vec()));
            }
            _ => return Err(ValueError::BadEncoding),
        }
    }
    if !data.is_empty() {
        return Err(ValueError::BadEncoding);
    }
    Ok(out)
}

/// Typed accessor over decoded call arguments.
#[derive(Debug, Clone)]
pub struct Args(pub Vec<Value>);

impl Args {
    /// Decodes call data.
    ///
    /// # Errors
    ///
    /// Returns [`ValueError::BadEncoding`] on malformed input.
    pub fn decode(data: &[u8]) -> Result<Args, ValueError> {
        decode_args(data).map(Args)
    }

    /// Gets argument `i`.
    ///
    /// # Errors
    ///
    /// Returns [`ValueError::MissingArg`] when absent.
    pub fn get(&self, i: usize) -> Result<&Value, ValueError> {
        self.0.get(i).ok_or(ValueError::MissingArg(i))
    }

    /// Gets argument `i` as an int.
    ///
    /// # Errors
    ///
    /// Propagates [`ValueError`] on absence or type mismatch.
    pub fn int(&self, i: usize) -> Result<i64, ValueError> {
        self.get(i)?.as_int()
    }

    /// Gets argument `i` as a string.
    ///
    /// # Errors
    ///
    /// Propagates [`ValueError`] on absence or type mismatch.
    pub fn str(&self, i: usize) -> Result<&str, ValueError> {
        self.get(i)?.as_str()
    }

    /// Gets argument `i` as bytes.
    ///
    /// # Errors
    ///
    /// Propagates [`ValueError`] on absence or type mismatch.
    pub fn bytes(&self, i: usize) -> Result<&[u8], ValueError> {
        self.get(i)?.as_bytes()
    }

    /// Gets argument `i` as an address.
    ///
    /// # Errors
    ///
    /// Propagates [`ValueError`] on absence or malformed address.
    pub fn address(&self, i: usize) -> Result<Address, ValueError> {
        self.get(i)?.as_address()
    }

    /// Number of arguments.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are no arguments.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

fn read_u8(data: &mut &[u8]) -> Result<u8, ValueError> {
    let (first, rest) = data.split_first().ok_or(ValueError::BadEncoding)?;
    *data = rest;
    Ok(*first)
}

fn read_u32(data: &mut &[u8]) -> Result<u32, ValueError> {
    let bytes = read_exact(data, 4)?;
    Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
}

fn read_exact<'a>(data: &mut &'a [u8], len: usize) -> Result<&'a [u8], ValueError> {
    if data.len() < len {
        return Err(ValueError::BadEncoding);
    }
    let (head, rest) = data.split_at(len);
    *data = rest;
    Ok(head)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_mixed_args() {
        let args = vec![
            Value::Int(-42),
            Value::str("stroke-cohort"),
            Value::Bytes(vec![0, 1, 2, 255]),
            Value::Int(i64::MAX),
        ];
        assert_eq!(decode_args(&encode_args(&args)).unwrap(), args);
    }

    #[test]
    fn empty_args_round_trip() {
        assert_eq!(decode_args(&encode_args(&[])).unwrap(), Vec::<Value>::new());
    }

    #[test]
    fn truncated_input_is_rejected() {
        let encoded = encode_args(&[Value::str("hello")]);
        for cut in 1..encoded.len() {
            assert!(decode_args(&encoded[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut encoded = encode_args(&[Value::Int(1)]);
        encoded.push(0);
        assert_eq!(decode_args(&encoded), Err(ValueError::BadEncoding));
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut encoded = encode_args(&[Value::Int(1)]);
        encoded[4] = 9;
        assert_eq!(decode_args(&encoded), Err(ValueError::BadEncoding));
    }

    #[test]
    fn typed_accessors() {
        let args = Args(vec![Value::Int(7), Value::str("x"), Value::address(&Address::from_seed(1))]);
        assert_eq!(args.int(0).unwrap(), 7);
        assert_eq!(args.str(1).unwrap(), "x");
        assert_eq!(args.address(2).unwrap(), Address::from_seed(1));
        assert!(args.int(1).is_err());
        assert!(matches!(args.get(5), Err(ValueError::MissingArg(5))));
    }

    #[test]
    fn truthiness() {
        assert!(Value::Int(1).is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(Value::str("x").is_truthy());
        assert!(!Value::Bytes(vec![]).is_truthy());
    }

    #[test]
    fn address_round_trip() {
        let addr = Address::from_seed(9);
        assert_eq!(Value::address(&addr).as_address().unwrap(), addr);
        assert!(Value::Bytes(vec![1, 2, 3]).as_address().is_err());
    }
}

mod codec_impls {
    use super::Value;
    use medchain_runtime::impl_codec_enum;

    impl_codec_enum!(Value {
        0 => Int(n),
        1 => Bytes(bytes),
    });
}
