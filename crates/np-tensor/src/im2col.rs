//! `im2col`/`col2im` lowering for convolutions.
//!
//! `im2col` unrolls every sliding window of a feature map into the column of
//! a matrix so that a convolution becomes a single GEMM. `col2im` is its
//! adjoint and is what the backward pass uses to scatter gradients back to
//! the input layout.

use crate::shape::conv_out_dim;

/// Geometry of an `im2col` lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Im2colSpec {
    /// Input channels.
    pub channels: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Square kernel extent.
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding in both spatial dimensions.
    pub padding: usize,
}

impl Im2colSpec {
    /// Output feature-map height.
    pub fn out_height(&self) -> usize {
        conv_out_dim(self.height, self.kernel, self.stride, self.padding)
    }

    /// Output feature-map width.
    pub fn out_width(&self) -> usize {
        conv_out_dim(self.width, self.kernel, self.stride, self.padding)
    }

    /// Rows of the lowered matrix: `channels * kernel * kernel`.
    pub fn rows(&self) -> usize {
        self.channels * self.kernel * self.kernel
    }

    /// Columns of the lowered matrix: `out_height * out_width`.
    pub fn cols(&self) -> usize {
        self.out_height() * self.out_width()
    }
}

/// Lowers a single CHW image into the `rows x cols` im2col matrix.
///
/// # Panics
///
/// Panics if `input.len() != channels * height * width`.
pub fn im2col(input: &[f32], spec: Im2colSpec) -> Vec<f32> {
    assert_eq!(
        input.len(),
        spec.channels * spec.height * spec.width,
        "input size mismatch"
    );
    let (oh, ow) = (spec.out_height(), spec.out_width());
    let cols = oh * ow;
    let mut out = vec![0.0; spec.rows() * cols];
    let pad = spec.padding as isize;

    let mut row = 0;
    for c in 0..spec.channels {
        let plane = &input[c * spec.height * spec.width..(c + 1) * spec.height * spec.width];
        for ky in 0..spec.kernel {
            for kx in 0..spec.kernel {
                let dst = &mut out[row * cols..(row + 1) * cols];
                for oy in 0..oh {
                    let iy = oy as isize * spec.stride as isize + ky as isize - pad;
                    if iy < 0 || iy >= spec.height as isize {
                        continue; // stays zero (padding)
                    }
                    let src_row = &plane[iy as usize * spec.width..(iy as usize + 1) * spec.width];
                    let dst_row = &mut dst[oy * ow..(oy + 1) * ow];
                    for (ox, d) in dst_row.iter_mut().enumerate() {
                        let ix = ox as isize * spec.stride as isize + kx as isize - pad;
                        if ix >= 0 && ix < spec.width as isize {
                            *d = src_row[ix as usize];
                        }
                    }
                }
                row += 1;
            }
        }
    }
    out
}

/// Adjoint of [`im2col`]: scatters a `rows x cols` matrix back into a CHW
/// image, accumulating where windows overlap.
///
/// # Panics
///
/// Panics if `cols_mat.len()` does not match the spec geometry.
pub fn col2im(cols_mat: &[f32], spec: Im2colSpec) -> Vec<f32> {
    let (oh, ow) = (spec.out_height(), spec.out_width());
    let cols = oh * ow;
    assert_eq!(cols_mat.len(), spec.rows() * cols, "matrix size mismatch");
    let mut out = vec![0.0; spec.channels * spec.height * spec.width];
    let pad = spec.padding as isize;

    let mut row = 0;
    for c in 0..spec.channels {
        for ky in 0..spec.kernel {
            for kx in 0..spec.kernel {
                let src = &cols_mat[row * cols..(row + 1) * cols];
                for oy in 0..oh {
                    let iy = oy as isize * spec.stride as isize + ky as isize - pad;
                    if iy < 0 || iy >= spec.height as isize {
                        continue;
                    }
                    for ox in 0..ow {
                        let ix = ox as isize * spec.stride as isize + kx as isize - pad;
                        if ix >= 0 && ix < spec.width as isize {
                            out[c * spec.height * spec.width
                                + iy as usize * spec.width
                                + ix as usize] += src[oy * ow + ox];
                        }
                    }
                }
                row += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_kernel_1x1() {
        let spec = Im2colSpec {
            channels: 2,
            height: 3,
            width: 3,
            kernel: 1,
            stride: 1,
            padding: 0,
        };
        let input: Vec<f32> = (0..18).map(|x| x as f32).collect();
        // 1x1 stride-1 im2col is the identity (rows = channels).
        assert_eq!(im2col(&input, spec), input);
    }

    #[test]
    fn known_3x3_window() {
        let spec = Im2colSpec {
            channels: 1,
            height: 3,
            width: 3,
            kernel: 3,
            stride: 1,
            padding: 0,
        };
        let input: Vec<f32> = (1..=9).map(|x| x as f32).collect();
        // A single window: the column equals the flattened input.
        let m = im2col(&input, spec);
        assert_eq!(m, input);
    }

    #[test]
    fn padding_zero_fills() {
        let spec = Im2colSpec {
            channels: 1,
            height: 2,
            width: 2,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let input = vec![1.0, 2.0, 3.0, 4.0];
        let m = im2col(&input, spec);
        assert_eq!(m.len(), 9 * 4);
        // Kernel position (0,0) for output (0,0) looks at input (-1,-1): zero.
        assert_eq!(m[0], 0.0);
        // Kernel centre (1,1) for output (0,0) is input (0,0) = 1.0.
        assert_eq!(m[4 * 4], 1.0);
    }

    #[test]
    fn col2im_is_adjoint() {
        // <im2col(x), y> == <x, col2im(y)> for any x, y — the defining
        // property the backward pass relies on.
        let spec = Im2colSpec {
            channels: 2,
            height: 5,
            width: 4,
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        let n_in = spec.channels * spec.height * spec.width;
        let n_mat = spec.rows() * spec.cols();
        let x: Vec<f32> = (0..n_in).map(|i| (i as f32 * 0.7).sin()).collect();
        let y: Vec<f32> = (0..n_mat).map(|i| (i as f32 * 0.3).cos()).collect();
        let ax: Vec<f32> = im2col(&x, spec);
        let aty: Vec<f32> = col2im(&y, spec);
        let lhs: f32 = ax.iter().zip(y.iter()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.iter().zip(aty.iter()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch {lhs} vs {rhs}");
    }
}
