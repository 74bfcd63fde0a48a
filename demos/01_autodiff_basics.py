"""A walk through the reverse-mode tape: build a loss, pull gradients
back through it, and confirm them against finite differences."""

import numpy as np

from skipnorm import (
    Tensor,
    add,
    gradcheck,
    matmul,
    relu,
    softmax_cross_entropy,
    tsum,
)

rng = np.random.default_rng(0)

# A two-layer classifier on a toy batch. Leaves that should receive
# gradients are marked requires_grad; everything downstream records
# itself on the tape automatically.
x = Tensor(rng.normal(size=(8, 4)))
w1 = Tensor(rng.normal(0.0, 0.5, (4, 16)), requires_grad=True)
b1 = Tensor(np.zeros(16), requires_grad=True)
w2 = Tensor(rng.normal(0.0, 0.5, (16, 3)), requires_grad=True)
labels = rng.integers(0, 3, size=8)

hidden = relu(add(matmul(x, w1), b1))
logits = matmul(hidden, w2)
loss = softmax_cross_entropy(logits, labels)

print(f"loss on the toy batch: {loss.data.item():.4f}")

loss.backward()
print(f"w1 gradient norm: {np.linalg.norm(w1.grad):.4f}")
print(f"w2 gradient norm: {np.linalg.norm(w2.grad):.4f}")

# Leaf gradients accumulate across backward passes until cleared, which
# is what microbatch accumulation relies on.
g_first = w2.grad.copy()
second = softmax_cross_entropy(matmul(relu(add(matmul(x, w1), b1)), w2), labels)
second.backward()
print(f"accumulated w2 grad is double the single pass: {np.allclose(w2.grad, 2 * g_first)}")

# The same machinery can be checked numerically. gradcheck perturbs
# every input coordinate and compares against the tape's answer.
def f(a, b):
    return tsum(relu(matmul(a, b)))

a = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
b = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
report = gradcheck(f, [a, b])
print(f"finite-difference check: max rel err {report.max_rel_err:.2e} (tol {report.tol:g})")
