"""L2-regularized binary logistic regression.

This is the workhorse of the paper's analysis: samples are labeled
optimal/sub-optimal and a logistic classifier is fitted; the magnitudes of
its coefficients, weight-normalized, become the "influence" heat-map cells
of Figs. 2-4.

Two solvers are provided:

- ``"newton"`` (default) — iteratively reweighted least squares with a
  Levenberg-style damping fallback; converges in a handful of iterations on
  the standardized, moderately-sized designs the analysis produces,
- ``"gd"`` — plain batch gradient descent with backtracking line search;
  slower but simple, used in tests as an independent cross-check that both
  solvers reach the same optimum (the loss is strictly convex for l2 > 0).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConvergenceError, FitError, NotFittedError

__all__ = ["LogisticRegression"]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class LogisticRegression:
    """Binary logistic regression minimizing

    ``mean(log-loss) + l2/(2 n) * ||w||²`` (intercept unpenalized).

    Parameters
    ----------
    l2:
        Ridge penalty strength (equivalent to scikit-learn's ``1/C``).
        Must be > 0 for the ``"newton"`` solver's Hessian to stay well
        conditioned on separable data.
    solver:
        ``"newton"`` or ``"gd"``.
    max_iter, tol:
        Iteration budget and gradient-norm convergence tolerance.
    """

    def __init__(
        self,
        l2: float = 1.0,
        solver: str = "newton",
        max_iter: int = 200,
        tol: float = 1e-8,
        fit_intercept: bool = True,
    ):
        if l2 < 0:
            raise FitError(f"l2 penalty must be >= 0, got {l2}")
        if solver not in ("newton", "gd"):
            raise FitError(f"unknown solver {solver!r}")
        self.l2 = l2
        self.solver = solver
        self.max_iter = max_iter
        self.tol = tol
        self.fit_intercept = fit_intercept
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self.n_iter_: int = 0
        self.converged_: bool = False

    # ------------------------------------------------------------------
    def _design(self, X: np.ndarray) -> np.ndarray:
        if self.fit_intercept:
            return np.hstack([X, np.ones((X.shape[0], 1))])
        return X

    def _penalty_vector(self, p_aug: int) -> np.ndarray:
        pen = np.full(p_aug, self.l2)
        if self.fit_intercept:
            pen[-1] = 0.0
        return pen

    def _loss_grad(
        self, w: np.ndarray, Xa: np.ndarray, y: np.ndarray, pen: np.ndarray
    ) -> tuple[float, np.ndarray, np.ndarray]:
        n = Xa.shape[0]
        z = Xa @ w
        p = _sigmoid(z)
        eps = 1e-12
        loss = -float(
            np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps))
        ) + 0.5 * float(pen @ (w * w)) / n
        grad = Xa.T @ (p - y) / n + pen * w / n
        return loss, grad, p

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        """Fit on (n_samples, n_features) design ``X`` and 0/1 labels ``y``."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise FitError(f"expected 2-D design matrix, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise FitError(
                f"labels shape {y.shape} does not match {X.shape[0]} samples"
            )
        uniq = np.unique(y)
        if not np.all(np.isin(uniq, [0.0, 1.0])):
            raise FitError(f"labels must be 0/1, got values {uniq}")
        if X.shape[0] == 0:
            raise FitError("cannot fit on zero samples")

        Xa = self._design(X)
        pen = self._penalty_vector(Xa.shape[1])
        w = np.zeros(Xa.shape[1])

        if uniq.shape[0] == 1:
            # Degenerate single-class fit: zero weights, intercept at the
            # logit of the (clipped) class prior — mirrors what a maximum
            # likelihood fit would run off to; keeps the pipeline total.
            prior = float(np.clip(y.mean(), 1e-6, 1 - 1e-6))
            if self.fit_intercept:
                w[-1] = np.log(prior / (1 - prior))
            self._store(w)
            self.converged_ = True
            return self

        if self.solver == "newton":
            self._fit_newton(w, Xa, y, pen)
        else:
            self._fit_gd(w, Xa, y, pen)
        return self

    def _store(self, w: np.ndarray) -> None:
        if self.fit_intercept:
            self.coef_ = w[:-1].copy()
            self.intercept_ = float(w[-1])
        else:
            self.coef_ = w.copy()
            self.intercept_ = 0.0

    def _fit_newton(
        self, w: np.ndarray, Xa: np.ndarray, y: np.ndarray, pen: np.ndarray
    ) -> None:
        n = Xa.shape[0]
        damping = 1e-8
        # An accepted step's evaluation is carried into the next iteration
        # (same function, same inputs), so each iterate is evaluated once.
        loss, grad, p = self._loss_grad(w, Xa, y, pen)
        for it in range(1, self.max_iter + 1):
            gnorm = float(np.linalg.norm(grad))
            if gnorm < self.tol:
                self.n_iter_ = it
                self.converged_ = True
                self._store(w)
                return
            r = p * (1 - p)
            H = (Xa.T * r) @ Xa / n + np.diag(pen / n)
            # Damped Newton: escalate damping until the step decreases loss.
            step_ok = False
            local_damping = damping
            for _ in range(30):
                try:
                    delta = np.linalg.solve(
                        H + local_damping * np.eye(H.shape[0]), grad
                    )
                except np.linalg.LinAlgError:
                    local_damping = max(local_damping * 10, 1e-10)
                    continue
                new_w = w - delta
                new_loss, new_grad, new_p = self._loss_grad(new_w, Xa, y, pen)
                if new_loss <= loss + 1e-12:
                    w, loss, grad, p = new_w, new_loss, new_grad, new_p
                    step_ok = True
                    break
                local_damping = max(local_damping * 10, 1e-10)
            if not step_ok:
                # Cannot improve further — accept current point as optimum.
                self.n_iter_ = it
                self.converged_ = gnorm < 1e-4
                self._store(w)
                return
        self.n_iter_ = self.max_iter
        self.converged_ = float(np.linalg.norm(grad)) < max(self.tol, 1e-4)
        self._store(w)
        if not self.converged_:
            raise ConvergenceError(
                f"newton solver failed to converge in {self.max_iter} iterations "
                f"(grad norm {float(np.linalg.norm(grad)):.3g})"
            )

    def _fit_gd(
        self, w: np.ndarray, Xa: np.ndarray, y: np.ndarray, pen: np.ndarray
    ) -> None:
        lr = 1.0
        loss, grad, _ = self._loss_grad(w, Xa, y, pen)
        for it in range(1, self.max_iter + 1):
            gnorm = float(np.linalg.norm(grad))
            if gnorm < self.tol:
                self.n_iter_ = it
                self.converged_ = True
                self._store(w)
                return
            # Backtracking line search on the Armijo condition.
            step = lr
            for _ in range(50):
                new_w = w - step * grad
                new_loss, new_grad, _ = self._loss_grad(new_w, Xa, y, pen)
                if new_loss <= loss - 1e-4 * step * gnorm * gnorm:
                    break
                step *= 0.5
            else:
                self.n_iter_ = it
                self.converged_ = gnorm < 1e-3
                self._store(w)
                return
            w, loss, grad = new_w, new_loss, new_grad
            lr = min(step * 2.0, 1e3)
        self.n_iter_ = self.max_iter
        self.converged_ = float(np.linalg.norm(grad)) < max(self.tol, 1e-3)
        self._store(w)

    # ------------------------------------------------------------------
    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Linear scores ``X @ coef_ + intercept_``."""
        if self.coef_ is None:
            raise NotFittedError("LogisticRegression used before fit")
        X = np.asarray(X, dtype=float)
        return X @ self.coef_ + self.intercept_

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """(n, 2) class probabilities ``[P(y=0), P(y=1)]``."""
        p1 = _sigmoid(self.decision_function(X))
        return np.stack([1.0 - p1, p1], axis=1)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """0/1 class predictions at the 0.5 threshold."""
        return (self.decision_function(X) >= 0.0).astype(np.int64)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean accuracy on ``(X, y)``."""
        y = np.asarray(y)
        return float(np.mean(self.predict(X) == y.astype(np.int64)))

    def normalized_importances(self) -> np.ndarray:
        """Weight-normalized absolute coefficients (the paper's influence).

        ``|coef| / sum(|coef|)``; an all-zero coefficient vector returns the
        uniform distribution so downstream heat maps stay well defined.
        """
        if self.coef_ is None:
            raise NotFittedError("LogisticRegression used before fit")
        mags = np.abs(self.coef_)
        total = mags.sum()
        if total == 0.0:
            return np.full(mags.shape[0], 1.0 / max(mags.shape[0], 1))
        return mags / total
