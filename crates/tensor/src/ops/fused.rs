//! Fused `linear + bias + activation` — one autograd node for the single
//! most common op chain in the GNN stack (`act(x·W + b)`).
//!
//! Fusing buys two things over the unfused chain:
//!
//! - **Allocation**: the bias add and the activation mutate the matmul
//!   output in place, and backward keeps one `dpre` temporary instead of a
//!   gradient buffer per intermediate node (three nodes collapse to one).
//! - **Graph overhead**: one `Rc` node, one backward closure, one
//!   topo-order entry per layer call instead of three.
//!
//! Every scalar operation and its ordering is identical to the unfused
//! `x.matmul(w).add_row_vec(b).act()` chain, so results — forward values
//! *and* accumulated gradients — are bitwise equal. The backward pass
//! re-derives the activation derivative from the **output** `y` alone
//! (`relu`: `y>0 ⟺ x>0`; `elu`: `y≤0 ⟺ x≤0` with `exp(x) = y+1`;
//! `sigmoid`/`tanh` are natively output-based), which avoids retaining the
//! pre-activation matrix.

use crate::autograd::Tensor;
use crate::matrix::Matrix;

/// Pointwise activation selector for [`Tensor::linear`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Act {
    /// No activation: plain affine `x·W + b`.
    Identity,
    /// Rectified linear unit.
    Relu,
    /// Leaky ReLU with the given negative slope (must be non-negative so the
    /// derivative can be recovered from the output sign).
    LeakyRelu(f32),
    /// Exponential linear unit (alpha = 1).
    Elu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Act {
    /// Applies the activation in place. Scalar formulas match the
    /// standalone ops in `ops/activation.rs` exactly.
    pub(crate) fn apply_assign(&self, m: &mut Matrix) {
        match *self {
            Act::Identity => {}
            Act::Relu => m.map_assign(|v| v.max(0.0)),
            Act::LeakyRelu(slope) => m.map_assign(move |v| if v > 0.0 { v } else { slope * v }),
            Act::Elu => m.map_assign(|v| if v > 0.0 { v } else { v.exp() - 1.0 }),
            Act::Sigmoid => m.map_assign(|v| 1.0 / (1.0 + (-v).exp())),
            Act::Tanh => m.map_assign(f32::tanh),
        }
    }

    /// `d act/d pre ∘ g`, reconstructed from the activation output `y`.
    /// Branch conditions and scalar expressions are chosen to be bitwise
    /// equivalent to the pre-activation-based formulas in
    /// `ops/activation.rs` (including NaN and `x == 0` edge cases).
    fn grad_from_output(&self, g: &Matrix, y: &Matrix) -> Matrix {
        match *self {
            Act::Identity => unreachable!("identity is short-circuited by the caller"),
            Act::Relu => g.zip_map(y, |gv, yv| if yv > 0.0 { gv } else { 0.0 }),
            Act::LeakyRelu(slope) => {
                g.zip_map(y, move |gv, yv| if yv > 0.0 { gv } else { slope * gv })
            }
            // exp(x) = y + 1 on the x ≤ 0 branch; x = 0 lands there with
            // y = 0, so the factor degenerates to exactly 1.0.
            Act::Elu => g.zip_map(y, |gv, yv| if yv > 0.0 { gv } else { gv * (yv + 1.0) }),
            Act::Sigmoid => g.zip_map(y, |gv, yv| gv * yv * (1.0 - yv)),
            Act::Tanh => g.zip_map(y, |gv, yv| gv * (1.0 - yv * yv)),
        }
    }
}

impl Tensor {
    /// Fused affine + activation: `act(self · w + b)` as a single autograd
    /// node. Bitwise-equivalent to the unfused
    /// `self.matmul(w).add_row_vec(b)` followed by the activation, forward
    /// and backward.
    pub fn linear(&self, w: &Tensor, b: Option<&Tensor>, act: Act) -> Tensor {
        let _op = crate::chk::op_scope("linear");
        if let Act::LeakyRelu(slope) = act {
            debug_assert!(slope >= 0.0, "linear: negative leaky slope breaks output-based grad");
        }
        let mut value = self.value().matmul(&w.value());
        if let Some(b) = b {
            value.add_row_vec_assign(&b.value());
        }
        act.apply_assign(&mut value);

        let (x, wt) = (self.clone(), w.clone());
        let bt = b.cloned();
        let (xv, wv) = (self.to_matrix(), w.to_matrix());
        // Identity needs no activation backward, so skip retaining y.
        let yv = (act != Act::Identity).then(|| value.clone());
        let mut parents = vec![self.clone(), w.clone()];
        if let Some(b) = b {
            parents.push(b.clone());
        }
        Tensor::from_op(
            value,
            parents,
            Box::new(move |g| {
                let dpre_owned;
                let dpre: &Matrix = match &yv {
                    None => g,
                    Some(y) => {
                        dpre_owned = act.grad_from_output(g, y);
                        &dpre_owned
                    }
                };
                // dX = dpre · Wᵀ ; dW = Xᵀ · dpre ; db = Σ_rows dpre
                x.accum_grad_owned(dpre.matmul_nt(&wv));
                wt.accum_grad_owned(xv.matmul_tn(dpre));
                if let Some(bt) = &bt {
                    bt.accum_grad_owned(dpre.sum_cols());
                }
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unfused(x: &Tensor, w: &Tensor, b: Option<&Tensor>, act: Act) -> Tensor {
        let mut out = x.matmul(w);
        if let Some(b) = b {
            out = out.add_row_vec(b);
        }
        match act {
            Act::Identity => out,
            Act::Relu => out.relu(),
            Act::LeakyRelu(s) => out.leaky_relu(s),
            Act::Elu => out.elu(),
            Act::Sigmoid => out.sigmoid(),
            Act::Tanh => out.tanh(),
        }
    }

    fn assert_bitwise_eq(a: &Matrix, b: &Matrix, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn fused_matches_unfused_bitwise_forward_and_backward() {
        let acts = [
            Act::Identity,
            Act::Relu,
            Act::LeakyRelu(0.05),
            Act::Elu,
            Act::Sigmoid,
            Act::Tanh,
        ];
        // Mixed signs and an exact zero pre-activation row to hit every
        // activation branch, including the x == 0 boundary.
        let xm = Matrix::from_rows(&[&[1.0, -2.0], &[0.0, 0.0], &[-0.5, 3.0]]);
        let wm = Matrix::from_rows(&[&[0.7, -1.2, 0.4], &[-0.3, 0.8, 1.5]]);
        let bm = Matrix::from_rows(&[&[0.1, -0.2, 0.0]]);
        for act in acts {
            for with_bias in [false, true] {
                let (x1, w1) = (Tensor::param(xm.clone()), Tensor::param(wm.clone()));
                let b1 = with_bias.then(|| Tensor::param(bm.clone()));
                let out1 = x1.linear(&w1, b1.as_ref(), act);
                out1.sum().backward();

                let (x2, w2) = (Tensor::param(xm.clone()), Tensor::param(wm.clone()));
                let b2 = with_bias.then(|| Tensor::param(bm.clone()));
                let out2 = unfused(&x2, &w2, b2.as_ref(), act);
                out2.sum().backward();

                let what = format!("{act:?} bias={with_bias}");
                assert_bitwise_eq(&out1.to_matrix(), &out2.to_matrix(), &what);
                assert_bitwise_eq(&x1.grad().unwrap(), &x2.grad().unwrap(), &what);
                assert_bitwise_eq(&w1.grad().unwrap(), &w2.grad().unwrap(), &what);
                if let (Some(b1), Some(b2)) = (b1, b2) {
                    assert_bitwise_eq(&b1.grad().unwrap(), &b2.grad().unwrap(), &what);
                }
            }
        }
    }

    #[test]
    fn fused_linear_is_one_graph_node() {
        // The fused op must not retain intermediate nodes: the output's
        // parents are exactly {x, w, b}.
        let x = Tensor::param(Matrix::ones(2, 2));
        let w = Tensor::param(Matrix::ones(2, 2));
        let b = Tensor::param(Matrix::ones(1, 2));
        let out = x.linear(&w, Some(&b), Act::Relu);
        // Counted on the op's own subgraph (node ids are process-global, so
        // a parallel test could allocate between any two of ours).
        let parents: Vec<u64> = out.parents().iter().map(Tensor::id).collect();
        assert_eq!(parents, [x.id(), w.id(), b.id()], "output hangs directly off its inputs");
        assert!(out.parents().iter().all(Tensor::is_leaf), "no intermediate node retained");
    }
}
