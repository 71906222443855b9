//! Typed, byte-backed linear buffers.
//!
//! Both host arrays and simulated device arrays are [`Buffer`]s: an element
//! type plus a little-endian byte payload. Keeping the payload as raw bytes
//! makes the simulated PCIe transfers, partial (chunked) replica updates and
//! the two-level dirty-bit bookkeeping byte-accurate, the same way the
//! paper's runtime moves `cudaMemcpy`-able regions around.

use crate::{Ty, Value};

/// A typed linear buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct Buffer {
    ty: Ty,
    len: usize,
    bytes: Vec<u8>,
}

impl Buffer {
    /// Allocate a zero-initialised buffer of `len` elements of type `ty`.
    ///
    /// # Panics
    /// Panics if `ty` is not storable (`Bool`).
    pub fn zeroed(ty: Ty, len: usize) -> Buffer {
        assert!(ty.is_storable(), "buffers of {ty} are not supported");
        Buffer {
            ty,
            len,
            bytes: vec![0u8; len * ty.size_bytes()],
        }
    }

    /// Build a buffer from `i32` elements.
    pub fn from_i32(data: &[i32]) -> Buffer {
        Buffer::from_le(Ty::I32, data.iter().map(|v| v.to_le_bytes()))
    }

    /// Build a buffer from `f32` elements.
    pub fn from_f32(data: &[f32]) -> Buffer {
        Buffer::from_le(Ty::F32, data.iter().map(|v| v.to_le_bytes()))
    }

    /// Build a buffer from `f64` elements.
    pub fn from_f64(data: &[f64]) -> Buffer {
        Buffer::from_le(Ty::F64, data.iter().map(|v| v.to_le_bytes()))
    }

    /// Lay out `elems` — each already its little-endian pattern — back to
    /// back. `N` is a compile-time width, so the copy loop is specialised
    /// per element size.
    fn from_le<const N: usize>(ty: Ty, elems: impl ExactSizeIterator<Item = [u8; N]>) -> Buffer {
        debug_assert_eq!(ty.size_bytes(), N);
        let len = elems.len();
        let mut bytes = Vec::with_capacity(len * N);
        for e in elems {
            bytes.extend_from_slice(&e);
        }
        Buffer { ty, len, bytes }
    }

    /// Element type.
    pub fn ty(&self) -> Ty {
        self.ty
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total payload size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Read element `idx`.
    ///
    /// # Panics
    /// Panics on out-of-bounds access — inside the interpreter, bounds are
    /// validated first so the error can be reported as an [`crate::ExecError`].
    pub fn get(&self, idx: usize) -> Value {
        let sz = self.ty.size_bytes();
        Value::read_le(self.ty, &self.bytes[idx * sz..idx * sz + sz])
    }

    /// Write element `idx`.
    pub fn set(&mut self, idx: usize, v: Value) {
        debug_assert_eq!(v.ty(), self.ty, "type-confused store");
        let sz = self.ty.size_bytes();
        v.write_le(&mut self.bytes[idx * sz..idx * sz + sz]);
    }

    /// Borrow the raw little-endian payload.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutably borrow the raw payload.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    /// Copy `len` elements starting at `src_start` in `src` into this
    /// buffer starting at `dst_start`. Types must match. Returns the number
    /// of bytes moved (what a simulated DMA engine would transfer).
    pub fn copy_range_from(
        &mut self,
        dst_start: usize,
        src: &Buffer,
        src_start: usize,
        len: usize,
    ) -> usize {
        assert_eq!(self.ty, src.ty, "copy between differently-typed buffers");
        let sz = self.ty.size_bytes();
        let nbytes = len * sz;
        self.bytes[dst_start * sz..dst_start * sz + nbytes]
            .copy_from_slice(&src.bytes[src_start * sz..src_start * sz + nbytes]);
        nbytes
    }

    /// Iterate elements as `Value`s.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Collect into a `Vec<i32>`; panics if the type differs.
    pub fn to_i32_vec(&self) -> Vec<i32> {
        assert_eq!(self.ty, Ty::I32);
        self.iter().map(|v| v.as_i32().unwrap()).collect()
    }

    /// Collect into a `Vec<f32>`; panics if the type differs.
    pub fn to_f32_vec(&self) -> Vec<f32> {
        assert_eq!(self.ty, Ty::F32);
        self.iter().map(|v| v.as_f32().unwrap()).collect()
    }

    /// Collect into a `Vec<f64>`; panics if the type differs.
    pub fn to_f64_vec(&self) -> Vec<f64> {
        assert_eq!(self.ty, Ty::F64);
        self.iter().map(|v| v.as_f64().unwrap()).collect()
    }

    /// Fill every element with `v`: one bulk pass writing the element's
    /// little-endian pattern, specialised per element width.
    ///
    /// # Panics
    /// Panics if `v` is not of the buffer's element type.
    pub fn fill(&mut self, v: Value) {
        assert_eq!(v.ty(), self.ty, "type-confused fill");
        match v {
            Value::I32(x) => fill_le(&mut self.bytes, x.to_le_bytes()),
            Value::F32(x) => fill_le(&mut self.bytes, x.to_le_bytes()),
            Value::F64(x) => fill_le(&mut self.bytes, x.to_le_bytes()),
            // One byte wide; `zeroed` builds no such buffer anyway.
            Value::Bool(x) => self.bytes.fill(x as u8),
        }
    }
}

fn fill_le<const N: usize>(bytes: &mut [u8], pattern: [u8; N]) {
    for elem in bytes.chunks_exact_mut(N) {
        elem.copy_from_slice(&pattern);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_and_roundtrip() {
        let mut b = Buffer::zeroed(Ty::F64, 4);
        assert_eq!(b.len(), 4);
        assert_eq!(b.size_bytes(), 32);
        assert_eq!(b.get(2), Value::F64(0.0));
        b.set(2, Value::F64(1.5));
        assert_eq!(b.get(2), Value::F64(1.5));
        assert_eq!(b.get(1), Value::F64(0.0));
    }

    #[test]
    fn from_slices() {
        let b = Buffer::from_i32(&[1, -2, 3]);
        assert_eq!(b.to_i32_vec(), vec![1, -2, 3]);
        let b = Buffer::from_f32(&[0.5, 1.5]);
        assert_eq!(b.to_f32_vec(), vec![0.5, 1.5]);
        let b = Buffer::from_f64(&[0.25]);
        assert_eq!(b.to_f64_vec(), vec![0.25]);
    }

    #[test]
    fn range_copy_counts_bytes() {
        let src = Buffer::from_i32(&[10, 20, 30, 40]);
        let mut dst = Buffer::zeroed(Ty::I32, 4);
        let n = dst.copy_range_from(1, &src, 2, 2);
        assert_eq!(n, 8);
        assert_eq!(dst.to_i32_vec(), vec![0, 30, 40, 0]);
    }

    #[test]
    #[should_panic(expected = "not supported")]
    fn bool_buffers_rejected() {
        let _ = Buffer::zeroed(Ty::Bool, 1);
    }

    #[test]
    fn fill_sets_everything() {
        let mut b = Buffer::zeroed(Ty::I32, 3);
        b.fill(Value::I32(7));
        assert_eq!(b.to_i32_vec(), vec![7, 7, 7]);
        // Every width agrees with the per-element `set`, bit for bit
        // (negative zero and infinity are reduction identities).
        for v in [Value::I32(i32::MIN), Value::F32(-0.0), Value::F64(f64::NEG_INFINITY)] {
            let mut bulk = Buffer::zeroed(v.ty(), 5);
            let mut each = bulk.clone();
            bulk.fill(v);
            (0..5).for_each(|i| each.set(i, v));
            assert_eq!(bulk.bytes(), each.bytes(), "{v:?}");
        }
    }

    #[test]
    #[should_panic(expected = "type-confused fill")]
    fn fill_rejects_a_value_of_another_type() {
        Buffer::zeroed(Ty::I32, 2).fill(Value::F64(1.0));
    }
}
