"""Pluggable execution backends for the ``repro.nn`` matmul core.

Every inference-time matmul in this library funnels through
:func:`repro.nn.rc_matmul`, whose row-consistent branch used to be a hard-coded
``np.einsum`` call.  That einsum is the load-bearing numerical contract of the
whole repository — each output row of ``X @ W`` accumulates over the reduction
axis in strictly increasing ``k`` order with a separate multiply and add per
term, so the ``i``-th row of a batched forward is bit-identical to a
single-row forward.  Every equivalence tier (batched vs. sequential rollout,
sharded collection, batched serving vs. ``max_batch=1``)
rests on that property.  It is also the slowest matmul in the codebase: numpy's
einsum kernel is unblocked and unvectorised compared to what the contract
actually permits.

This module turns the kernel choice into a small registry of **execution
backends**, each owning four policies:

* the 2-D matmul kernel used inside a :func:`repro.nn.row_consistent_matmul`
  context (:meth:`ExecutionBackend.matmul2d`),
* the fused recurrent gate kernels used by ``nn.functional``'s GRU/LSTM
  forwards (:meth:`ExecutionBackend.gru_gates` /
  :meth:`ExecutionBackend.lstm_gates`),
* scratch/output-buffer allocation for those kernels
  (:meth:`ExecutionBackend.empty`), and
* the accumulation dtype (``compute_dtype``).

Three backends ship by default:

``reference``
    The original ``np.einsum("ik,kh->ih", a, b)`` matmul and the plain-numpy
    gate math, kept verbatim as the testable oracle.  Row-consistent,
    ``float64``.

``blocked`` (default)
    A C kernel pack compiled on first use (see :data:`_KERNEL_SOURCE`) that
    performs the *identical* floating-point operations in the identical
    per-element order as the reference — the GEMM k-loop is unrolled four
    wide with explicit sequential adds and compiled with
    ``-ffp-contract=off``, so no fused-multiply-add or reassociation can
    change a single bit.  The fused GRU/LSTM gate kernels are *hybrid*: the
    compiled code performs only exact IEEE arithmetic (adds, multiplies,
    divides, negation), while the transcendental ``exp`` / ``tanh``
    evaluations stay in numpy — numpy's SIMD ``exp``/``tanh`` differ from C ``libm`` in the
    last ulp, but are value-deterministic (same input bits → same output
    bits regardless of memory layout or batching), so splitting the work
    this way is bit-identical to the pure-numpy oracle by construction.
    Everything is asserted against the reference on a self-check battery at
    load time and in the test suite; on any machine without a working C
    toolchain the backend degrades to the oracle paths (same bits, reference
    speed) with a one-time :class:`RuntimeWarning`.  Row-consistent,
    ``float64``.

``float32``
    Opt-in inference mode for the serving tier: operands are cast to
    ``float32`` and multiplied with BLAS, trading the bit-equivalence ladder
    for raw speed.  The contract is *per-dtype*: decision streams are
    reproducible for a fixed batch composition but not invariant to it, so
    this backend must never be active during training or any equivalence
    test.  Not row-consistent.  The serving tier pairs it with an end-to-end
    f32 session path (``repro.serve.fastpath``) that keeps encoder state and
    gate scratch in ``float32`` between flushes.

Selection API::

    nn.set_default_backend("blocked")        # process-wide default
    with nn.use_backend("float32"):          # scoped override
        server.flush()
    nn.active_backend().name                 # introspection

The ``REPRO_NN_BACKEND`` environment variable overrides the initial default
(useful for CI A/B runs); ``REPRO_NN_KERNEL_CACHE`` relocates the compiled
kernel cache (default: a ``repro-amoeba-kernels`` directory under the user
cache dir, falling back to the system temp dir).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.machinery
import importlib.util
import os
import subprocess
import sys
import sysconfig
import tempfile
import time
import warnings
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..obs import _state as _obs_state

__all__ = [
    "ExecutionBackend",
    "ReferenceBackend",
    "BlockedBackend",
    "Float32Backend",
    "register_backend",
    "get_backend",
    "available_backends",
    "active_backend",
    "default_backend",
    "set_default_backend",
    "use_backend",
    "compiled_kernel_available",
    "compiled_kernel_error",
    "fused_cells_available",
    "fused_cells_error",
]


# --------------------------------------------------------------------------- #
# Runtime-compiled C kernel pack
# --------------------------------------------------------------------------- #
# The kernels are a CPython extension rather than a ctypes library because the
# matmuls they serve are small (a policy step is an (8, 134) @ (134, 64)): the
# ~6 us of ctypes pointer-marshalling per call would swallow the win, while a
# METH_VARARGS entry point costs well under a microsecond.
#
# Numerical contract (load-bearing): for each output element, terms are
# accumulated over k in strictly increasing order, each term a separate IEEE
# multiply and add.  The 4-wide unroll keeps that order — ``t += a0*b0[h];
# t += a1*b1[h]; ...`` is the same chain of rounded operations the reference
# einsum performs — and ``-ffp-contract=off`` forbids the compiler from fusing
# any multiply/add pair.  Auto-vectorisation is safe because SIMD lanes run
# across the *output* axis ``h``; the per-element reduction order is untouched.
#
# Gate kernels: the fused GRU/LSTM phase kernels below perform only exact
# IEEE-754 arithmetic (negate / add / multiply / divide).  The transcendental
# exp/tanh evaluations deliberately stay in numpy on the Python side (see
# _compiled_gru_gates / _compiled_lstm_gates): numpy's vectorised exp/tanh
# differ from C libm in the last ulp, but are value-deterministic, so the
# hybrid pipeline reproduces the pure-numpy oracle bit for bit.

_KERNEL_MODULE_NAME = "_repro_rc_gemm"

_KERNEL_SOURCE = r"""
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>

/* ------------------------------------------------------------------ */
/* Row-consistent f64 GEMM, bit-identical to np.einsum("ik,kh->ih"):  */
/* strictly increasing k-order accumulation per output element,       */
/* separate multiply and add per term (no FMA; see build flags).      */
/* ------------------------------------------------------------------ */
static void rc_gemm_rows(const double *restrict a, const double *restrict b,
                         double *restrict out, npy_intp rows, npy_intp inner,
                         npy_intp cols) {
    for (npy_intp i = 0; i < rows; ++i) {
        const double *restrict arow = a + i * inner;
        double *restrict orow = out + i * cols;
        for (npy_intp h = 0; h < cols; ++h) orow[h] = 0.0;
        npy_intp k = 0;
        for (; k + 4 <= inner; k += 4) {
            const double a0 = arow[k], a1 = arow[k + 1];
            const double a2 = arow[k + 2], a3 = arow[k + 3];
            const double *restrict b0 = b + k * cols;
            const double *restrict b1 = b0 + cols;
            const double *restrict b2 = b1 + cols;
            const double *restrict b3 = b2 + cols;
            for (npy_intp h = 0; h < cols; ++h) {
                double t = orow[h];
                t += a0 * b0[h];
                t += a1 * b1[h];
                t += a2 * b2[h];
                t += a3 * b3[h];
                orow[h] = t;
            }
        }
        for (; k < inner; ++k) {
            const double aik = arow[k];
            const double *restrict brow = b + k * cols;
            for (npy_intp h = 0; h < cols; ++h) orow[h] += aik * brow[h];
        }
    }
}

/* ------------------------------------------------------------------ */
/* Argument helpers                                                   */
/* ------------------------------------------------------------------ */
static PyArrayObject *rc_as_array(PyObject *obj, int ndim, const char *name) {
    PyArrayObject *arr =
        (PyArrayObject *)PyArray_FROM_OTF(obj, NPY_DOUBLE, NPY_ARRAY_IN_ARRAY);
    if (arr == NULL) return NULL;
    if (PyArray_NDIM(arr) != ndim) {
        PyErr_Format(PyExc_ValueError, "%s must be %d-D", name, ndim);
        Py_DECREF(arr);
        return NULL;
    }
    return arr;
}

/* ------------------------------------------------------------------ */
/* GEMM entry point: rc_gemm(a, b) -> (m, n) float64                  */
/* ------------------------------------------------------------------ */
static PyObject *py_rc_gemm(PyObject *self, PyObject *args) {
    PyObject *a_obj, *b_obj;
    if (!PyArg_ParseTuple(args, "OO", &a_obj, &b_obj)) return NULL;
    PyArrayObject *a = rc_as_array(a_obj, 2, "a");
    if (a == NULL) return NULL;
    PyArrayObject *b = rc_as_array(b_obj, 2, "b");
    if (b == NULL) {
        Py_DECREF(a);
        return NULL;
    }
    if (PyArray_DIM(a, 1) != PyArray_DIM(b, 0)) {
        Py_DECREF(a);
        Py_DECREF(b);
        PyErr_SetString(PyExc_ValueError, "rc_gemm expects (m, k) @ (k, n) arrays");
        return NULL;
    }
    npy_intp dims[2] = {PyArray_DIM(a, 0), PyArray_DIM(b, 1)};
    PyArrayObject *out = (PyArrayObject *)PyArray_SimpleNew(2, dims, NPY_DOUBLE);
    if (out == NULL) {
        Py_DECREF(a);
        Py_DECREF(b);
        return NULL;
    }
    npy_intp rows = dims[0], inner = PyArray_DIM(a, 1), cols = dims[1];
    const double *ad = (const double *)PyArray_DATA(a);
    const double *bd = (const double *)PyArray_DATA(b);
    double *od = (double *)PyArray_DATA(out);
    Py_BEGIN_ALLOW_THREADS
    rc_gemm_rows(ad, bd, od, rows, inner, cols);
    Py_END_ALLOW_THREADS
    Py_DECREF(a);
    Py_DECREF(b);
    return (PyObject *)out;
}

/* ------------------------------------------------------------------ */
/* Fused GRU gate phases (exact IEEE arithmetic only; exp/tanh run in */
/* numpy between phases — see the Python-side hybrid wrappers).       */
/*                                                                    */
/* Oracle being reproduced (nn/functional.py):                        */
/*   pre_rz    = (gx[:, :2H] + gh[:, :2H]) + b[:2H]                   */
/*   r, z      = 1/(1+exp(-pre_rz[:, :H])), 1/(1+exp(-pre_rz[:, H:])) */
/*   candidate = tanh((gx[:, 2H:] + r * gh[:, 2H:]) + b[2H:])         */
/*   h'        = ((1 - z) * candidate) + (z * h)                      */
/* ------------------------------------------------------------------ */

/* gru_phase1(gx (B,3H), gh (B,3H), b (3H,)) -> -((gx+gh)+b) over the
   first 2H columns: the exp argument for both sigmoid gates. */
static PyObject *py_gru_phase1(PyObject *self, PyObject *args) {
    PyObject *gx_obj, *gh_obj, *b_obj;
    if (!PyArg_ParseTuple(args, "OOO", &gx_obj, &gh_obj, &b_obj)) return NULL;
    PyArrayObject *gx = rc_as_array(gx_obj, 2, "gx");
    PyArrayObject *gh = gx ? rc_as_array(gh_obj, 2, "gh") : NULL;
    PyArrayObject *b = gh ? rc_as_array(b_obj, 1, "b") : NULL;
    if (b == NULL) {
        Py_XDECREF(gx);
        Py_XDECREF(gh);
        return NULL;
    }
    npy_intp batch = PyArray_DIM(gx, 0), width = PyArray_DIM(gx, 1);
    npy_intp size = width / 3;
    if (width != 3 * size || PyArray_DIM(gh, 0) != batch ||
        PyArray_DIM(gh, 1) != width || PyArray_DIM(b, 0) != width) {
        Py_DECREF(gx);
        Py_DECREF(gh);
        Py_DECREF(b);
        PyErr_SetString(PyExc_ValueError,
                        "gru_phase1 expects gx/gh (B, 3H) and b (3H,)");
        return NULL;
    }
    npy_intp dims[2] = {batch, 2 * size};
    PyArrayObject *out = (PyArrayObject *)PyArray_SimpleNew(2, dims, NPY_DOUBLE);
    if (out == NULL) {
        Py_DECREF(gx);
        Py_DECREF(gh);
        Py_DECREF(b);
        return NULL;
    }
    const double *gxd = (const double *)PyArray_DATA(gx);
    const double *ghd = (const double *)PyArray_DATA(gh);
    const double *bd = (const double *)PyArray_DATA(b);
    double *od = (double *)PyArray_DATA(out);
    npy_intp two = 2 * size;
    for (npy_intp i = 0; i < batch; ++i) {
        const double *gxr = gxd + i * width;
        const double *ghr = ghd + i * width;
        double *orow = od + i * two;
        for (npy_intp j = 0; j < two; ++j)
            orow[j] = -((gxr[j] + ghr[j]) + bd[j]);
    }
    Py_DECREF(gx);
    Py_DECREF(gh);
    Py_DECREF(b);
    return (PyObject *)out;
}

/* gru_phase2(exp_pre (B,2H), gx, gh, b) -> (reset, update, cand_pre),
   each (B,H): finishes the sigmoids from the numpy exp and builds the
   candidate tanh argument (gx_n + r*gh_n) + b_n. */
static PyObject *py_gru_phase2(PyObject *self, PyObject *args) {
    PyObject *e_obj, *gx_obj, *gh_obj, *b_obj;
    if (!PyArg_ParseTuple(args, "OOOO", &e_obj, &gx_obj, &gh_obj, &b_obj))
        return NULL;
    PyArrayObject *e = rc_as_array(e_obj, 2, "exp_pre");
    PyArrayObject *gx = e ? rc_as_array(gx_obj, 2, "gx") : NULL;
    PyArrayObject *gh = gx ? rc_as_array(gh_obj, 2, "gh") : NULL;
    PyArrayObject *b = gh ? rc_as_array(b_obj, 1, "b") : NULL;
    if (b == NULL) {
        Py_XDECREF(e);
        Py_XDECREF(gx);
        Py_XDECREF(gh);
        return NULL;
    }
    npy_intp batch = PyArray_DIM(gx, 0), width = PyArray_DIM(gx, 1);
    npy_intp size = width / 3;
    if (width != 3 * size || PyArray_DIM(e, 0) != batch ||
        PyArray_DIM(e, 1) != 2 * size || PyArray_DIM(gh, 0) != batch ||
        PyArray_DIM(gh, 1) != width || PyArray_DIM(b, 0) != width) {
        Py_DECREF(e);
        Py_DECREF(gx);
        Py_DECREF(gh);
        Py_DECREF(b);
        PyErr_SetString(PyExc_ValueError,
                        "gru_phase2 expects exp_pre (B, 2H), gx/gh (B, 3H), b (3H,)");
        return NULL;
    }
    npy_intp dims[2] = {batch, size};
    PyArrayObject *reset = (PyArrayObject *)PyArray_SimpleNew(2, dims, NPY_DOUBLE);
    PyArrayObject *update = (PyArrayObject *)PyArray_SimpleNew(2, dims, NPY_DOUBLE);
    PyArrayObject *cand = (PyArrayObject *)PyArray_SimpleNew(2, dims, NPY_DOUBLE);
    if (reset == NULL || update == NULL || cand == NULL) {
        Py_DECREF(e);
        Py_DECREF(gx);
        Py_DECREF(gh);
        Py_DECREF(b);
        Py_XDECREF(reset);
        Py_XDECREF(update);
        Py_XDECREF(cand);
        return NULL;
    }
    const double *ed = (const double *)PyArray_DATA(e);
    const double *gxd = (const double *)PyArray_DATA(gx);
    const double *ghd = (const double *)PyArray_DATA(gh);
    const double *bd = (const double *)PyArray_DATA(b);
    double *rd = (double *)PyArray_DATA(reset);
    double *zd = (double *)PyArray_DATA(update);
    double *cd = (double *)PyArray_DATA(cand);
    const double *bn = bd + 2 * size;
    for (npy_intp i = 0; i < batch; ++i) {
        const double *erow = ed + i * 2 * size;
        const double *gxn = gxd + i * width + 2 * size;
        const double *ghn = ghd + i * width + 2 * size;
        double *rrow = rd + i * size;
        double *zrow = zd + i * size;
        double *crow = cd + i * size;
        for (npy_intp j = 0; j < size; ++j) {
            const double r = 1.0 / (1.0 + erow[j]);
            rrow[j] = r;
            zrow[j] = 1.0 / (1.0 + erow[size + j]);
            crow[j] = (gxn[j] + r * ghn[j]) + bn[j];
        }
    }
    Py_DECREF(e);
    Py_DECREF(gx);
    Py_DECREF(gh);
    Py_DECREF(b);
    return Py_BuildValue("NNN", reset, update, cand);
}

/* gru_phase3(update, candidate, hidden) -> ((1-z)*n) + (z*h), all (B,H). */
static PyObject *py_gru_phase3(PyObject *self, PyObject *args) {
    PyObject *z_obj, *n_obj, *h_obj;
    if (!PyArg_ParseTuple(args, "OOO", &z_obj, &n_obj, &h_obj)) return NULL;
    PyArrayObject *z = rc_as_array(z_obj, 2, "update");
    PyArrayObject *n = z ? rc_as_array(n_obj, 2, "candidate") : NULL;
    PyArrayObject *h = n ? rc_as_array(h_obj, 2, "hidden") : NULL;
    if (h == NULL) {
        Py_XDECREF(z);
        Py_XDECREF(n);
        return NULL;
    }
    npy_intp batch = PyArray_DIM(z, 0), size = PyArray_DIM(z, 1);
    if (PyArray_DIM(n, 0) != batch || PyArray_DIM(n, 1) != size ||
        PyArray_DIM(h, 0) != batch || PyArray_DIM(h, 1) != size) {
        Py_DECREF(z);
        Py_DECREF(n);
        Py_DECREF(h);
        PyErr_SetString(PyExc_ValueError, "gru_phase3 expects three (B, H) arrays");
        return NULL;
    }
    npy_intp dims[2] = {batch, size};
    PyArrayObject *out = (PyArrayObject *)PyArray_SimpleNew(2, dims, NPY_DOUBLE);
    if (out == NULL) {
        Py_DECREF(z);
        Py_DECREF(n);
        Py_DECREF(h);
        return NULL;
    }
    const double *zd = (const double *)PyArray_DATA(z);
    const double *nd = (const double *)PyArray_DATA(n);
    const double *hd = (const double *)PyArray_DATA(h);
    double *od = (double *)PyArray_DATA(out);
    npy_intp total = batch * size;
    for (npy_intp j = 0; j < total; ++j)
        od[j] = ((1.0 - zd[j]) * nd[j]) + (zd[j] * hd[j]);
    Py_DECREF(z);
    Py_DECREF(n);
    Py_DECREF(h);
    return (PyObject *)out;
}

/* ------------------------------------------------------------------ */
/* Fused LSTM gate phases.  Oracle (nn/functional.py):                */
/*   pre = (gx + gh) + b                       (B, 4H), [i | f | g | o] */
/*   i, f, o = sigmoid(pre slices);  g = tanh(pre[:, 2H:3H])          */
/*   c' = (f * c) + (i * g);  h' = o * tanh(c')                       */
/* ------------------------------------------------------------------ */

/* lstm_phase1(gx (B,4H), gh, b (4H,)) -> (neg_ifo (B,3H), pre_g (B,H)):
   neg_ifo packs [-pre_i | -pre_f | -pre_o] (exp arguments); pre_g is the
   tanh argument. */
static PyObject *py_lstm_phase1(PyObject *self, PyObject *args) {
    PyObject *gx_obj, *gh_obj, *b_obj;
    if (!PyArg_ParseTuple(args, "OOO", &gx_obj, &gh_obj, &b_obj)) return NULL;
    PyArrayObject *gx = rc_as_array(gx_obj, 2, "gx");
    PyArrayObject *gh = gx ? rc_as_array(gh_obj, 2, "gh") : NULL;
    PyArrayObject *b = gh ? rc_as_array(b_obj, 1, "b") : NULL;
    if (b == NULL) {
        Py_XDECREF(gx);
        Py_XDECREF(gh);
        return NULL;
    }
    npy_intp batch = PyArray_DIM(gx, 0), width = PyArray_DIM(gx, 1);
    npy_intp size = width / 4;
    if (width != 4 * size || PyArray_DIM(gh, 0) != batch ||
        PyArray_DIM(gh, 1) != width || PyArray_DIM(b, 0) != width) {
        Py_DECREF(gx);
        Py_DECREF(gh);
        Py_DECREF(b);
        PyErr_SetString(PyExc_ValueError,
                        "lstm_phase1 expects gx/gh (B, 4H) and b (4H,)");
        return NULL;
    }
    npy_intp dims_ifo[2] = {batch, 3 * size};
    npy_intp dims_g[2] = {batch, size};
    PyArrayObject *neg_ifo =
        (PyArrayObject *)PyArray_SimpleNew(2, dims_ifo, NPY_DOUBLE);
    PyArrayObject *pre_g = (PyArrayObject *)PyArray_SimpleNew(2, dims_g, NPY_DOUBLE);
    if (neg_ifo == NULL || pre_g == NULL) {
        Py_DECREF(gx);
        Py_DECREF(gh);
        Py_DECREF(b);
        Py_XDECREF(neg_ifo);
        Py_XDECREF(pre_g);
        return NULL;
    }
    const double *gxd = (const double *)PyArray_DATA(gx);
    const double *ghd = (const double *)PyArray_DATA(gh);
    const double *bd = (const double *)PyArray_DATA(b);
    double *nd = (double *)PyArray_DATA(neg_ifo);
    double *gd = (double *)PyArray_DATA(pre_g);
    for (npy_intp i = 0; i < batch; ++i) {
        const double *gxr = gxd + i * width;
        const double *ghr = ghd + i * width;
        double *nrow = nd + i * 3 * size;
        double *grow = gd + i * size;
        for (npy_intp j = 0; j < size; ++j) {
            nrow[j] = -((gxr[j] + ghr[j]) + bd[j]);
            nrow[size + j] =
                -((gxr[size + j] + ghr[size + j]) + bd[size + j]);
            nrow[2 * size + j] =
                -((gxr[3 * size + j] + ghr[3 * size + j]) + bd[3 * size + j]);
            grow[j] = (gxr[2 * size + j] + ghr[2 * size + j]) + bd[2 * size + j];
        }
    }
    Py_DECREF(gx);
    Py_DECREF(gh);
    Py_DECREF(b);
    return Py_BuildValue("NN", neg_ifo, pre_g);
}

/* lstm_phase2(exp_ifo (B,3H), gate_g (B,H), cell (B,H)) ->
   (gate_i, gate_f, gate_o, new_cell): finishes the sigmoids and
   computes c' = (f*c) + (i*g). */
static PyObject *py_lstm_phase2(PyObject *self, PyObject *args) {
    PyObject *e_obj, *g_obj, *c_obj;
    if (!PyArg_ParseTuple(args, "OOO", &e_obj, &g_obj, &c_obj)) return NULL;
    PyArrayObject *e = rc_as_array(e_obj, 2, "exp_ifo");
    PyArrayObject *g = e ? rc_as_array(g_obj, 2, "gate_g") : NULL;
    PyArrayObject *c = g ? rc_as_array(c_obj, 2, "cell") : NULL;
    if (c == NULL) {
        Py_XDECREF(e);
        Py_XDECREF(g);
        return NULL;
    }
    npy_intp batch = PyArray_DIM(g, 0), size = PyArray_DIM(g, 1);
    if (PyArray_DIM(e, 0) != batch || PyArray_DIM(e, 1) != 3 * size ||
        PyArray_DIM(c, 0) != batch || PyArray_DIM(c, 1) != size) {
        Py_DECREF(e);
        Py_DECREF(g);
        Py_DECREF(c);
        PyErr_SetString(PyExc_ValueError,
                        "lstm_phase2 expects exp_ifo (B, 3H), gate_g/cell (B, H)");
        return NULL;
    }
    npy_intp dims[2] = {batch, size};
    PyArrayObject *gi = (PyArrayObject *)PyArray_SimpleNew(2, dims, NPY_DOUBLE);
    PyArrayObject *gf = (PyArrayObject *)PyArray_SimpleNew(2, dims, NPY_DOUBLE);
    PyArrayObject *go = (PyArrayObject *)PyArray_SimpleNew(2, dims, NPY_DOUBLE);
    PyArrayObject *nc = (PyArrayObject *)PyArray_SimpleNew(2, dims, NPY_DOUBLE);
    if (gi == NULL || gf == NULL || go == NULL || nc == NULL) {
        Py_DECREF(e);
        Py_DECREF(g);
        Py_DECREF(c);
        Py_XDECREF(gi);
        Py_XDECREF(gf);
        Py_XDECREF(go);
        Py_XDECREF(nc);
        return NULL;
    }
    const double *ed = (const double *)PyArray_DATA(e);
    const double *gd = (const double *)PyArray_DATA(g);
    const double *cd = (const double *)PyArray_DATA(c);
    double *gid = (double *)PyArray_DATA(gi);
    double *gfd = (double *)PyArray_DATA(gf);
    double *god = (double *)PyArray_DATA(go);
    double *ncd = (double *)PyArray_DATA(nc);
    for (npy_intp i = 0; i < batch; ++i) {
        const double *erow = ed + i * 3 * size;
        const double *grow = gd + i * size;
        const double *crow = cd + i * size;
        double *girow = gid + i * size;
        double *gfrow = gfd + i * size;
        double *gorow = god + i * size;
        double *ncrow = ncd + i * size;
        for (npy_intp j = 0; j < size; ++j) {
            const double vi = 1.0 / (1.0 + erow[j]);
            const double vf = 1.0 / (1.0 + erow[size + j]);
            girow[j] = vi;
            gfrow[j] = vf;
            gorow[j] = 1.0 / (1.0 + erow[2 * size + j]);
            ncrow[j] = (vf * crow[j]) + (vi * grow[j]);
        }
    }
    Py_DECREF(e);
    Py_DECREF(g);
    Py_DECREF(c);
    return Py_BuildValue("NNNN", gi, gf, go, nc);
}

static PyMethodDef rc_gemm_methods[] = {
    {"rc_gemm", py_rc_gemm, METH_VARARGS,
     "Row-consistent f64 GEMM, bit-identical to np.einsum('ik,kh->ih')."},
    {"gru_phase1", py_gru_phase1, METH_VARARGS,
     "GRU gate phase 1: -((gx+gh)+b) over the r/z columns."},
    {"gru_phase2", py_gru_phase2, METH_VARARGS,
     "GRU gate phase 2: finish sigmoids, build candidate pre-activation."},
    {"gru_phase3", py_gru_phase3, METH_VARARGS,
     "GRU gate phase 3: ((1-z)*n) + (z*h)."},
    {"lstm_phase1", py_lstm_phase1, METH_VARARGS,
     "LSTM gate phase 1: packed -pre for i/f/o plus the g pre-activation."},
    {"lstm_phase2", py_lstm_phase2, METH_VARARGS,
     "LSTM gate phase 2: finish sigmoids, c' = (f*c) + (i*g)."},
    {NULL, NULL, 0, NULL}};

static struct PyModuleDef rc_gemm_module = {
    PyModuleDef_HEAD_INIT, "_repro_rc_gemm", NULL, -1, rc_gemm_methods};

PyMODINIT_FUNC PyInit__repro_rc_gemm(void) {
    import_array();
    return PyModule_Create(&rc_gemm_module);
}
"""

_BASE_CFLAGS = [
    "-O3",
    "-ffp-contract=off",
    "-fno-math-errno",
    "-shared",
    "-fPIC",
]

# Sentinel distinguishing "not attempted yet" from "attempted and failed".
_UNSET = object()
_KERNEL = _UNSET
_KERNEL_ERROR: Optional[str] = None


def _cache_dir() -> str:
    override = os.environ.get("REPRO_NN_KERNEL_CACHE")
    candidates = [override] if override else []
    candidates.append(
        os.path.join(
            os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache")),
            "repro-amoeba-kernels",
        )
    )
    candidates.append(os.path.join(tempfile.gettempdir(), "repro-amoeba-kernels"))
    for candidate in candidates:
        try:
            os.makedirs(candidate, exist_ok=True)
            return candidate
        except OSError:
            continue
    raise OSError("no writable kernel cache directory")


def _kernel_path() -> str:
    tag = hashlib.sha256(
        "\n".join(
            [
                _KERNEL_SOURCE,
                " ".join(_BASE_CFLAGS),
                sys.implementation.cache_tag,
                np.__version__,
            ]
        ).encode()
    ).hexdigest()[:16]
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return os.path.join(_cache_dir(), f"{_KERNEL_MODULE_NAME}_{tag}{suffix}")


def _compile_kernel(target: str) -> None:
    """Compile the kernel source to ``target`` (atomic via temp + rename)."""
    compiler = os.environ.get("CC") or "cc"
    includes = [
        "-I" + sysconfig.get_paths()["include"],
        "-I" + np.get_include(),
    ]
    build_dir = os.path.dirname(target)
    source_path = os.path.join(build_dir, f"{_KERNEL_MODULE_NAME}.c")
    with open(source_path, "w") as handle:
        handle.write(_KERNEL_SOURCE)
    temp_target = target + f".tmp{os.getpid()}"
    # -march=native unlocks the wide SIMD units; retry without it for
    # toolchains that reject the flag.  Neither attempt may enable FMA
    # contraction — -ffp-contract=off is in the base flags.
    for extra in (["-march=native"], []):
        command = (
            [compiler, *_BASE_CFLAGS, *extra, *includes, source_path, "-o", temp_target]
        )
        result = subprocess.run(command, capture_output=True, text=True, timeout=120)
        if result.returncode == 0:
            os.replace(temp_target, target)
            return
    raise RuntimeError(
        f"kernel compilation failed: {result.stderr.strip().splitlines()[-1:] or result.stderr}"
    )


def _load_extension(path: str):
    loader = importlib.machinery.ExtensionFileLoader(_KERNEL_MODULE_NAME, path)
    spec = importlib.util.spec_from_file_location(_KERNEL_MODULE_NAME, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


def _self_check(kernel) -> None:
    """Assert the compiled GEMM matches the reference einsum bit-for-bit.

    Cheap insurance against a miscompiled or mis-flagged build: a handful of
    shapes covering the unroll boundary (k % 4 ∈ {0, 1, 2, 3}), single rows,
    and empty reductions.  Raises on the first mismatch.
    """
    rng = np.random.default_rng(20260807)
    for rows, inner, cols in [(1, 5, 3), (3, 4, 7), (8, 134, 64), (5, 7, 2), (2, 0, 4)]:
        a = rng.standard_normal((rows, inner))
        b = rng.standard_normal((inner, cols))
        expected = np.einsum("ik,kh->ih", a, b)
        got = kernel.rc_gemm(a, b)
        if not np.array_equal(got, expected):
            raise RuntimeError(
                f"compiled rc_gemm diverges from reference einsum at shape "
                f"({rows}, {inner}) @ ({inner}, {cols})"
            )


def _ensure_kernel():
    """Return the compiled kernel module, or ``None`` if unavailable.

    The first call compiles (or loads a previously cached build of) the
    extension; failures of any kind — no compiler, unwritable cache,
    self-check mismatch — are recorded, announced once via
    :class:`RuntimeWarning`, and the blocked backend permanently degrades to
    the reference paths for this process (identical bits, reference speed).
    """
    global _KERNEL, _KERNEL_ERROR
    if _KERNEL is not _UNSET:
        return _KERNEL
    try:
        path = _kernel_path()
        if not os.path.exists(path):
            _compile_kernel(path)
        kernel = _load_extension(path)
        _self_check(kernel)
        _KERNEL = kernel
    except Exception as exc:  # noqa: BLE001 - degrade, never break callers
        _KERNEL = None
        _KERNEL_ERROR = f"{type(exc).__name__}: {exc}"
        warnings.warn(
            "repro.nn.backend: compiled blocked kernel unavailable "
            f"({_KERNEL_ERROR}); the 'blocked' backend is falling back to "
            "the reference einsum (identical bits, reference speed). "
            "Run `repro-amoeba backends` for details.",
            RuntimeWarning,
            stacklevel=2,
        )
    return _KERNEL


def compiled_kernel_available() -> bool:
    """``True`` when the blocked backend is running its compiled GEMM."""
    return _ensure_kernel() is not None


def compiled_kernel_error() -> Optional[str]:
    """The reason the compiled kernel is unavailable (``None`` when loaded)."""
    _ensure_kernel()
    return _KERNEL_ERROR


# --------------------------------------------------------------------------- #
# Fused recurrent gate kernels
# --------------------------------------------------------------------------- #
# The numpy implementations below are the oracle: they are copied
# operation-for-operation from the original nn/functional.py forwards (the
# sigmoid is the exact Tensor.sigmoid expression, every add/multiply in the
# same order), and they are what the `reference` backend — and any backend
# that doesn't override the gate hooks — executes.  The compiled path
# interleaves the C phase kernels (exact IEEE arithmetic) with numpy's
# exp/tanh and is self-checked against these oracles at first use.


def _np_gru_gates(
    gx: np.ndarray, gh: np.ndarray, b: np.ndarray, hidden: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Oracle GRU gate math; returns ``(h', reset, update, candidate, gh_n)``.

    Dtype-generic (the serving fastpath reuses it in float32): python-float
    scalars do not widen float32 operands under numpy 2 value-based casting.
    """
    size = hidden.shape[-1]
    pre_rz = gx[:, : 2 * size] + gh[:, : 2 * size] + b[: 2 * size]
    reset = 1.0 / (1.0 + np.exp(-pre_rz[:, :size]))
    update = 1.0 / (1.0 + np.exp(-pre_rz[:, size:]))
    gh_n = gh[:, 2 * size :]
    candidate = np.tanh(gx[:, 2 * size :] + reset * gh_n + b[2 * size :])
    new_hidden = (1.0 - update) * candidate + update * hidden
    return new_hidden, reset, update, candidate, gh_n


def _np_lstm_gates(
    gx: np.ndarray, gh: np.ndarray, b: np.ndarray, cell: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """Oracle LSTM gate math.

    Returns ``(h', c', gate_i, gate_f, gate_g, gate_o, tanh_cell)``.
    """
    size = cell.shape[-1]
    pre = gx + gh + b
    gate_i = 1.0 / (1.0 + np.exp(-pre[:, :size]))
    gate_f = 1.0 / (1.0 + np.exp(-pre[:, size : 2 * size]))
    gate_g = np.tanh(pre[:, 2 * size : 3 * size])
    gate_o = 1.0 / (1.0 + np.exp(-pre[:, 3 * size :]))
    new_cell = gate_f * cell + gate_i * gate_g
    tanh_cell = np.tanh(new_cell)
    new_hidden = gate_o * tanh_cell
    return new_hidden, new_cell, gate_i, gate_f, gate_g, gate_o, tanh_cell


def _compiled_gru_gates(
    kernel, gx: np.ndarray, gh: np.ndarray, b: np.ndarray, hidden: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Hybrid GRU gates: C for exact IEEE arithmetic, numpy for exp/tanh."""
    size = hidden.shape[-1]
    neg_pre = kernel.gru_phase1(gx, gh, b)
    exp_pre = np.exp(neg_pre)
    reset, update, cand_pre = kernel.gru_phase2(exp_pre, gx, gh, b)
    candidate = np.tanh(cand_pre)
    new_hidden = kernel.gru_phase3(update, candidate, hidden)
    return new_hidden, reset, update, candidate, gh[..., 2 * size :]


def _compiled_lstm_gates(
    kernel, gx: np.ndarray, gh: np.ndarray, b: np.ndarray, cell: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """Hybrid LSTM gates: C for exact IEEE arithmetic, numpy for exp/tanh."""
    neg_ifo, pre_g = kernel.lstm_phase1(gx, gh, b)
    exp_ifo = np.exp(neg_ifo)
    gate_g = np.tanh(pre_g)
    gate_i, gate_f, gate_o, new_cell = kernel.lstm_phase2(exp_ifo, gate_g, cell)
    tanh_cell = np.tanh(new_cell)
    new_hidden = gate_o * tanh_cell
    return new_hidden, new_cell, gate_i, gate_f, gate_g, gate_o, tanh_cell


_GATES_OK: Optional[bool] = None
_GATES_ERROR: Optional[str] = None


def _self_check_gates(kernel) -> None:
    """Assert the hybrid gate pipelines reproduce the numpy oracles bitwise.

    Shapes cover single rows and odd widths; the magnitude scales include
    saturating pre-activations (|pre| ~ 50) where sigmoid/tanh clamp to the
    boundary, the regime where any op-order deviation would surface.
    """
    rng = np.random.default_rng(20260807)
    for batch, size in [(1, 3), (4, 5), (7, 16), (3, 1)]:
        for scale in (1.0, 8.0, 50.0):
            gx3 = rng.standard_normal((batch, 3 * size)) * scale
            gh3 = rng.standard_normal((batch, 3 * size)) * scale
            b3 = rng.standard_normal(3 * size) * scale
            hidden = rng.standard_normal((batch, size))
            expected = _np_gru_gates(gx3, gh3, b3, hidden)
            got = _compiled_gru_gates(kernel, gx3, gh3, b3, hidden)
            for want, have in zip(expected, got):
                if not np.array_equal(want, have):
                    raise RuntimeError(
                        f"compiled GRU gates diverge from the numpy oracle at "
                        f"batch={batch}, size={size}, scale={scale}"
                    )
            gx4 = rng.standard_normal((batch, 4 * size)) * scale
            gh4 = rng.standard_normal((batch, 4 * size)) * scale
            b4 = rng.standard_normal(4 * size) * scale
            cell = rng.standard_normal((batch, size))
            expected = _np_lstm_gates(gx4, gh4, b4, cell)
            got = _compiled_lstm_gates(kernel, gx4, gh4, b4, cell)
            for want, have in zip(expected, got):
                if not np.array_equal(want, have):
                    raise RuntimeError(
                        f"compiled LSTM gates diverge from the numpy oracle at "
                        f"batch={batch}, size={size}, scale={scale}"
                    )


def _gates_kernel():
    """The compiled module if its gate kernels passed self-check, else ``None``.

    Gate availability is tracked separately from GEMM availability so a gate
    self-check failure degrades only the gate path — the GEMM keeps its
    compiled speed, and vice versa.
    """
    global _GATES_OK, _GATES_ERROR
    kernel = _ensure_kernel()
    if kernel is None:
        return None
    if _GATES_OK is None:
        try:
            _self_check_gates(kernel)
            _GATES_OK = True
        except Exception as exc:  # noqa: BLE001 - degrade, never break callers
            _GATES_OK = False
            _GATES_ERROR = f"{type(exc).__name__}: {exc}"
            warnings.warn(
                "repro.nn.backend: compiled fused-cell kernels unavailable "
                f"({_GATES_ERROR}); GRU/LSTM gate math is falling back to "
                "numpy (identical bits, numpy speed).",
                RuntimeWarning,
                stacklevel=2,
            )
    return kernel if _GATES_OK else None


def fused_cells_available() -> bool:
    """``True`` when the blocked backend runs compiled fused-cell kernels."""
    return _gates_kernel() is not None


def fused_cells_error() -> Optional[str]:
    """Why the fused-cell kernels are unavailable (``None`` when active)."""
    _gates_kernel()
    return _KERNEL_ERROR if _KERNEL is None else _GATES_ERROR


# --------------------------------------------------------------------------- #
# Backends
# --------------------------------------------------------------------------- #
class ExecutionBackend:
    """One execution policy for the row-consistent matmul core.

    Subclasses define the 2-D matmul kernel used inside a
    :func:`repro.nn.row_consistent_matmul` context, the fused recurrent gate
    kernels, the accumulation dtype, and how scratch/output buffers are
    allocated.  ``row_consistent`` states whether :meth:`matmul2d` output
    rows depend only on the corresponding input row and the reduction
    length — the property the PR 1–5 bit-equivalence ladder requires of any
    backend active during training, collection, or equivalence testing.

    The gate hooks default to the numpy oracles, so any backend is safe for
    the recurrent forwards; only ``blocked`` overrides them with compiled
    (bit-identical) kernels.
    """

    name: str = "abstract"
    row_consistent: bool = False
    compute_dtype = np.float64

    def matmul2d(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Multiply two 2-D float64 arrays, returning a float64 array."""
        raise NotImplementedError

    def gru_gates(
        self, gx: np.ndarray, gh: np.ndarray, b: np.ndarray, hidden: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Fused GRU gate math on pre-projected ``gx = x@w_x``, ``gh = h@w_h``.

        Returns ``(new_hidden, reset, update, candidate, gh_n)`` — the
        outputs plus the activation caches the closed-form backward needs.
        """
        return _np_gru_gates(gx, gh, b, hidden)

    def lstm_gates(
        self, gx: np.ndarray, gh: np.ndarray, b: np.ndarray, cell: np.ndarray
    ) -> Tuple[np.ndarray, ...]:
        """Fused LSTM gate math; returns
        ``(new_hidden, new_cell, gate_i, gate_f, gate_g, gate_o, tanh_cell)``.
        """
        return _np_lstm_gates(gx, gh, b, cell)

    def empty(self, shape) -> np.ndarray:
        """Allocate a scratch/output buffer in this backend's compute dtype."""
        return np.empty(shape, dtype=self.compute_dtype)

    def describe(self) -> Dict[str, object]:
        """Introspection payload (benchmarks embed this in their results)."""
        return {
            "name": self.name,
            "row_consistent": self.row_consistent,
            "compute_dtype": np.dtype(self.compute_dtype).name,
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


# Cached telemetry instruments for the enabled-mode kernel timers: these
# paths run per matmul / per recurrent step, so even the registry's
# lock-free lookup (label-key build + dict probe) — and the ``import``
# statement that would fetch it — is measurable.  The cache is invalidated
# by registry generation, which bumps on obs.reset().
_OBS_INSTRUMENTS: Dict[str, object] = {"generation": -1}
_OBS_REGISTRY = None


def _obs_instruments() -> Dict[str, object]:
    global _OBS_REGISTRY

    registry = _OBS_REGISTRY
    if registry is None:
        from .. import obs

        registry = _OBS_REGISTRY = obs.registry()
    if _OBS_INSTRUMENTS["generation"] != registry.generation:
        _OBS_INSTRUMENTS.update(
            generation=registry.generation,
            gemm_compiled=registry.histogram("nn.gemm_ms", kernel="compiled"),
            gemm_einsum=registry.histogram("nn.gemm_ms", kernel="einsum"),
            cell_gru=registry.histogram("nn.cell_ms", cell="gru"),
            cell_lstm=registry.histogram("nn.cell_ms", cell="lstm"),
        )
    return _OBS_INSTRUMENTS


def _observe_cell_ms(cell: str, t0: float) -> None:
    """Record one fused-cell timing (enabled-telemetry paths only)."""
    _obs_instruments()["cell_" + cell].observe((time.perf_counter() - t0) * 1000.0)


# Kernel timers are stride-sampled: one call in _OBS_STRIDE gets the clock
# treatment.  A serving flush issues several sub-10-microsecond GEMMs, so
# timing every one would cost a measurable fraction of the kernel itself;
# a deterministic 1-in-16 sample keeps the nn.gemm_ms / nn.cell_ms
# distributions honest (the stride is phase-blind) at ~1/16th the overhead.
# Deterministic — no RNG draw — so enabling telemetry perturbs no seeded
# stream.  The tick is a single-slot list, not an int, so the hot path
# mutates in place instead of rebinding a global.
_OBS_STRIDE = 16
_OBS_MATMUL_TICK = [0]
_OBS_CELL_TICK = [0]


class ReferenceBackend(ExecutionBackend):
    """The original einsum + numpy path — the oracle every fast path is
    tested against.

    ``np.einsum("ik,kh->ih")`` accumulates each output element over ``k`` in
    strictly increasing order with separate multiply/add rounding steps,
    which is the numerical definition of the row-consistency contract.  The
    inherited gate hooks are the plain-numpy oracles.
    """

    name = "reference"
    row_consistent = True

    def matmul2d(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.einsum("ik,kh->ih", a, b)


class BlockedBackend(ExecutionBackend):
    """Compiled kernel pack, bit-identical to the reference paths.

    Dispatches the matmul to the runtime-compiled extension when available
    and verified (see :func:`compiled_kernel_available`), and the recurrent
    gate math to the hybrid compiled pipelines when they passed their own
    self-check (:func:`fused_cells_available`).  Because every fast path
    produces identical bits to its oracle, the dispatch points are invisible
    to all numerical contracts — only the clock changes.
    """

    name = "blocked"
    row_consistent = True

    def matmul2d(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if _obs_state.enabled:
            tick = _OBS_MATMUL_TICK
            tick[0] += 1
            if tick[0] % _OBS_STRIDE == 0:
                return self._matmul2d_timed(a, b)
        kernel = _ensure_kernel()
        if kernel is None:
            return np.einsum("ik,kh->ih", a, b)
        return kernel.rc_gemm(a, b)

    def _matmul2d_timed(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Enabled-telemetry twin of :meth:`matmul2d` — same dispatch, plus a
        ``nn.gemm_ms`` timer (stride-sampled; see ``_OBS_STRIDE``).

        Timing wraps the identical kernel calls (telemetry reads clocks
        only), so results stay bit-identical to the untimed path.
        """
        instruments = _obs_instruments()
        kernel = _ensure_kernel()
        t0 = time.perf_counter()
        if kernel is None:
            out = np.einsum("ik,kh->ih", a, b)
            gemm_hist = instruments["gemm_einsum"]
        else:
            out = kernel.rc_gemm(a, b)
            gemm_hist = instruments["gemm_compiled"]
        gemm_hist.observe((time.perf_counter() - t0) * 1000.0)
        return out

    def gru_gates(
        self, gx: np.ndarray, gh: np.ndarray, b: np.ndarray, hidden: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        if _obs_state.enabled:
            tick = _OBS_CELL_TICK
            tick[0] += 1
            if tick[0] % _OBS_STRIDE == 0:
                t0 = time.perf_counter()
                result = self._gru_gates(gx, gh, b, hidden)
                _observe_cell_ms("gru", t0)
                return result
        return self._gru_gates(gx, gh, b, hidden)

    def _gru_gates(self, gx, gh, b, hidden):
        kernel = _gates_kernel()
        if (
            kernel is not None
            and gx.dtype == np.float64
            and gh.dtype == np.float64
            and hidden.dtype == np.float64
        ):
            return _compiled_gru_gates(kernel, gx, gh, b, hidden)
        return _np_gru_gates(gx, gh, b, hidden)

    def lstm_gates(
        self, gx: np.ndarray, gh: np.ndarray, b: np.ndarray, cell: np.ndarray
    ) -> Tuple[np.ndarray, ...]:
        if _obs_state.enabled:
            tick = _OBS_CELL_TICK
            tick[0] += 1
            if tick[0] % _OBS_STRIDE == 0:
                t0 = time.perf_counter()
                result = self._lstm_gates(gx, gh, b, cell)
                _observe_cell_ms("lstm", t0)
                return result
        return self._lstm_gates(gx, gh, b, cell)

    def _lstm_gates(self, gx, gh, b, cell):
        kernel = _gates_kernel()
        if (
            kernel is not None
            and gx.dtype == np.float64
            and gh.dtype == np.float64
            and cell.dtype == np.float64
        ):
            return _compiled_lstm_gates(kernel, gx, gh, b, cell)
        return _np_lstm_gates(gx, gh, b, cell)

    def describe(self) -> Dict[str, object]:
        payload = super().describe()
        payload["kernel"] = "compiled" if compiled_kernel_available() else "einsum-fallback"
        payload["kernel_error"] = compiled_kernel_error()
        payload["fused_cells"] = (
            "compiled" if fused_cells_available() else "numpy-fallback"
        )
        payload["fused_cells_error"] = fused_cells_error()
        payload["cpu_count"] = os.cpu_count()
        return payload


class Float32Backend(ExecutionBackend):
    """Opt-in float32 inference mode (serving tier only).

    Operands are cast to ``float32`` and multiplied with BLAS; the result is
    widened back to ``float64`` so the surrounding Tensor machinery is
    untouched.  Roughly twice the arithmetic throughput and half the memory
    traffic of the float64 paths on wide serving batches, at the price of
    the ladder: BLAS kernel selection varies with the batch shape, so output
    rows are *not* invariant to batch composition.  The determinism contract
    is per-dtype — a fixed request stream on a fixed batch schedule
    reproduces, but batched and sequential schedules need not agree bitwise.
    Never activate this backend during training or equivalence testing.

    When a :class:`repro.serve.PolicyServer` is configured with
    ``backend="float32"`` it additionally swaps its per-flush forwards onto
    the end-to-end f32 session path (``repro.serve.fastpath``), which keeps
    encoder state and gate scratch in ``float32`` between flushes instead of
    round-tripping through this widen-back matmul.
    """

    name = "float32"
    row_consistent = False
    compute_dtype = np.float32

    def matmul2d(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a32 = np.asarray(a, dtype=np.float32)
        b32 = np.asarray(b, dtype=np.float32)
        out = self.empty((a32.shape[0], b32.shape[1]))
        np.matmul(a32, b32, out=out)
        return out.astype(np.float64)


# --------------------------------------------------------------------------- #
# Registry and selection
# --------------------------------------------------------------------------- #
_REGISTRY: Dict[str, ExecutionBackend] = {}
_DEFAULT: Optional[ExecutionBackend] = None
_OVERRIDES: List[ExecutionBackend] = []


def register_backend(backend: ExecutionBackend) -> ExecutionBackend:
    """Add ``backend`` to the registry (replacing any same-named entry)."""
    if not backend.name or backend.name == "abstract":
        raise ValueError("backend must define a concrete name")
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> ExecutionBackend:
    """Look up a registered backend by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown execution backend {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_backends() -> List[str]:
    """Names of all registered backends."""
    return sorted(_REGISTRY)


def default_backend() -> ExecutionBackend:
    """The process-wide default backend (active when no override is open)."""
    return _DEFAULT


def set_default_backend(name: str) -> ExecutionBackend:
    """Set the process-wide default backend; returns the new default."""
    global _DEFAULT
    _DEFAULT = get_backend(name)
    return _DEFAULT


def active_backend() -> ExecutionBackend:
    """The backend the next row-consistent matmul will execute on."""
    if _OVERRIDES:
        return _OVERRIDES[-1]
    return _DEFAULT


@contextlib.contextmanager
def use_backend(name: str) -> Iterator[ExecutionBackend]:
    """Scoped backend override (nestable; innermost wins)."""
    backend = get_backend(name)
    _OVERRIDES.append(backend)
    try:
        yield backend
    finally:
        _OVERRIDES.pop()


register_backend(ReferenceBackend())
register_backend(BlockedBackend())
register_backend(Float32Backend())

_initial = os.environ.get("REPRO_NN_BACKEND", "blocked")
if _initial not in _REGISTRY:
    warnings.warn(
        f"REPRO_NN_BACKEND={_initial!r} is not a registered backend; "
        f"falling back to 'blocked'",
        RuntimeWarning,
        stacklevel=2,
    )
    _initial = "blocked"
set_default_backend(_initial)
