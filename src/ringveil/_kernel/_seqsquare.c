/*
 * Compiled sequential-squaring and modular-exponentiation kernel.
 *
 * Odd moduli run in Montgomery form over 64-bit limbs (Montgomery, "Modular
 * multiplication without trial division", Math. Comp. 1985), multiplied by
 * coarsely integrated operand scanning, CIOS (Koc, Acar, Kaliski, "Analyzing
 * and comparing Montgomery multiplication algorithms", IEEE Micro 1996).  A
 * value enters Montgomery form once per call and leaves it once; in between,
 * every step of square_chain is exactly one Montgomery squaring, so there is
 * no exponent shortcut on this path.  Moduli of one limb take a dedicated
 * loop.  Even moduli, which Montgomery reduction cannot serve, and moduli
 * wider than MAX_LIMBS limbs run the pure kernel's big-int loop
 * (square_chain) or the built-in pow (modpow).
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <string.h>

typedef uint64_t limb_t;
typedef unsigned __int128 dlimb_t;

#define LIMB_BITS 64
#define MAX_LIMBS 64 /* 4096-bit moduli */
#define WINDOW_BITS 4
/* Squarings between two checks for a pending signal; the interpreter lock
   is released while each batch runs. */
#define BATCH_STEPS 65536

typedef struct {
    Py_ssize_t k;       /* limbs in the modulus */
    limb_t n[MAX_LIMBS];
    limb_t ninv;        /* -n^-1 mod 2^64 */
    PyObject *modulus;  /* borrowed */
} mont_t;

/* out = a * b * 2^(-64k) mod n, for a < n and b < 2^(64k); out may alias
   a or b.  Each outer step adds a * b[i] and q * n in one pass over the
   limbs, the two carry chains independent of each other. */
static void
mont_mul(limb_t *out, const limb_t *a, const limb_t *b, const mont_t *m)
{
    const Py_ssize_t k = m->k;
    const limb_t *n = m->n;
    limb_t t[MAX_LIMBS + 1], d[MAX_LIMBS];

    memset(t, 0, (size_t)(k + 1) * sizeof(limb_t));
    for (Py_ssize_t i = 0; i < k; i++) {
        const limb_t bi = b[i];
        dlimb_t c1 = (dlimb_t)a[0] * bi + t[0];
        const limb_t q = (limb_t)c1 * m->ninv;
        dlimb_t c2 = ((dlimb_t)q * n[0] + (limb_t)c1) >> LIMB_BITS;
        c1 >>= LIMB_BITS;
        for (Py_ssize_t j = 1; j < k; j++) {
            c1 += (dlimb_t)a[j] * bi + t[j];
            c2 += (dlimb_t)q * n[j] + (limb_t)c1;
            t[j - 1] = (limb_t)c2;
            c1 >>= LIMB_BITS;
            c2 >>= LIMB_BITS;
        }
        c1 += t[k];
        c2 += (limb_t)c1;
        t[k - 1] = (limb_t)c2;
        t[k] = (limb_t)(c1 >> LIMB_BITS) + (limb_t)(c2 >> LIMB_BITS);
    }
    /* t < 2n: subtract n once when t >= n. */
    limb_t borrow = 0;
    for (Py_ssize_t j = 0; j < k; j++) {
        dlimb_t diff = (dlimb_t)t[j] - n[j] - borrow;
        d[j] = (limb_t)diff;
        borrow = (limb_t)(diff >> LIMB_BITS) & 1;
    }
    memcpy(out, (t[k] != 0 || !borrow) ? d : t, (size_t)k * sizeof(limb_t));
}

/* The one-limb case of mont_mul: a * b * 2^-64 mod n. */
static inline limb_t
mont_mul1(limb_t a, limb_t b, limb_t n, limb_t ninv)
{
    dlimb_t t = (dlimb_t)a * b;
    dlimb_t qn = (dlimb_t)((limb_t)t * ninv) * n;
    /* The low limbs of t and qn sum to 0 mod 2^64, carrying 1 unless both
       are 0; the sum of the high limbs and that carry is below 2n. */
    dlimb_t s = (t >> LIMB_BITS) + (qn >> LIMB_BITS) + ((limb_t)t != 0);
    return (limb_t)(s >= n ? s - n : s);
}

static void
mont_squarings(limb_t *x, const mont_t *m, long long steps)
{
    if (m->k == 1) {
        limb_t v = x[0];
        const limb_t n = m->n[0], ninv = m->ninv;
        for (long long i = 0; i < steps; i++)
            v = mont_mul1(v, v, n, ninv);
        x[0] = v;
        return;
    }
    for (long long i = 0; i < steps; i++)
        mont_mul(x, x, x, m);
}

/* value, with 0 <= value < 2^(64k), as k little-endian limbs. */
static int
to_limbs(PyObject *value, limb_t *out, Py_ssize_t k)
{
    PyObject *raw = PyObject_CallMethod(value, "to_bytes", "ns", k * 8, "little");
    if (raw == NULL)
        return -1;
    const unsigned char *bytes = (const unsigned char *)PyBytes_AS_STRING(raw);
    for (Py_ssize_t i = 0; i < k; i++) {
        limb_t w = 0;
        for (int j = 7; j >= 0; j--)
            w = (w << 8) | bytes[8 * i + j];
        out[i] = w;
    }
    Py_DECREF(raw);
    return 0;
}

/* Set up m for an exact-int modulus > 1.  Returns 1 when the modulus is odd
   and at most MAX_LIMBS limbs wide, 0 when the caller must fall back, and -1
   with an exception set. */
static int
mont_init(mont_t *m, PyObject *modulus)
{
    PyObject *width = PyObject_CallMethod(modulus, "bit_length", NULL);
    if (width == NULL)
        return -1;
    Py_ssize_t bits = PyLong_AsSsize_t(width);
    Py_DECREF(width);
    if (bits < 0)
        return PyErr_Occurred() ? -1 : 0;
    if (bits > MAX_LIMBS * LIMB_BITS)
        return 0;
    m->k = (bits + LIMB_BITS - 1) / LIMB_BITS;
    m->modulus = modulus;
    if (to_limbs(modulus, m->n, m->k) < 0)
        return -1;
    const limb_t n0 = m->n[0];
    if (!(n0 & 1))
        return 0;
    /* n0 * n0 == 1 mod 8, so x = n0 inverts n0 to 3 bits; each Newton step
       doubles that: 6, 12, 24, 48, 96. */
    limb_t x = n0;
    for (int i = 0; i < 5; i++)
        x *= 2 - n0 * x;
    m->ninv = (limb_t)0 - x;
    return 1;
}

/* (value mod n) * 2^(64k) mod n, the Montgomery form of value. */
static int
to_mont(PyObject *value, const mont_t *m, limb_t *out)
{
    PyObject *shift = PyLong_FromSsize_t(m->k * LIMB_BITS);
    if (shift == NULL)
        return -1;
    PyObject *wide = PyNumber_Lshift(value, shift);
    Py_DECREF(shift);
    if (wide == NULL)
        return -1;
    PyObject *reduced = PyNumber_Remainder(wide, m->modulus);
    Py_DECREF(wide);
    if (reduced == NULL)
        return -1;
    int rc = to_limbs(reduced, out, m->k);
    Py_DECREF(reduced);
    return rc;
}

/* The int that x, in Montgomery form, stands for. */
static PyObject *
from_mont(const limb_t *x, const mont_t *m)
{
    limb_t one[MAX_LIMBS] = {1}, plain[MAX_LIMBS];
    unsigned char bytes[MAX_LIMBS * 8];

    mont_mul(plain, x, one, m);
    for (Py_ssize_t i = 0; i < m->k; i++)
        for (int j = 0; j < 8; j++)
            bytes[8 * i + j] = (unsigned char)(plain[i] >> (8 * j));
    return PyObject_CallMethod((PyObject *)&PyLong_Type, "from_bytes", "y#s",
                               (const char *)bytes, m->k * 8, "little");
}

/* Python's `value op bound` for a small int bound; -1 with an exception set. */
static int
compare_small(PyObject *value, long bound, int op)
{
    PyObject *rhs = PyLong_FromLong(bound);
    if (rhs == NULL)
        return -1;
    int result = PyObject_RichCompareBool(value, rhs, op);
    Py_DECREF(rhs);
    return result;
}

/* The pure kernel's loop: v = v * v % modulus, steps times. */
static PyObject *
bigint_chain(PyObject *value, PyObject *modulus, long long steps)
{
    PyObject *v = PyNumber_Remainder(value, modulus);
    for (long long i = 1; v != NULL && i <= steps; i++) {
        PyObject *square = PyNumber_Multiply(v, v);
        Py_DECREF(v);
        v = square == NULL ? NULL : PyNumber_Remainder(square, modulus);
        Py_XDECREF(square);
        if (v != NULL && i % BATCH_STEPS == 0 && PyErr_CheckSignals() < 0)
            Py_CLEAR(v);
    }
    return v;
}

PyDoc_STRVAR(square_chain_doc,
"square_chain(value, modulus, steps)\n--\n\n"
"Advance value by exactly steps sequential squarings mod modulus.\n\n"
"Returns value**(2**steps) mod modulus, one modular squaring per step,\n"
"with the interpreter lock released while odd moduli square.");

static PyObject *
square_chain(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {"value", "modulus", "steps", NULL};
    PyObject *value, *modulus, *steps_arg;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOO:square_chain", keywords,
                                     &value, &modulus, &steps_arg))
        return NULL;

    int bad = compare_small(steps_arg, 0, Py_LT);
    if (bad != 0) {
        if (bad > 0)
            PyErr_SetString(PyExc_ValueError, "steps must be non-negative");
        return NULL;
    }
    bad = compare_small(modulus, 1, Py_LE);
    if (bad != 0) {
        if (bad > 0)
            PyErr_SetString(PyExc_ValueError, "modulus must be greater than 1");
        return NULL;
    }
    long long steps = PyLong_AsLongLong(steps_arg);
    if (steps == -1 && PyErr_Occurred())
        return NULL;

    mont_t m;
    int fits = 0;
    if (PyLong_CheckExact(value) && PyLong_CheckExact(modulus)) {
        fits = mont_init(&m, modulus);
        if (fits < 0)
            return NULL;
    }
    if (!fits)
        return bigint_chain(value, modulus, steps);

    limb_t x[MAX_LIMBS];
    if (to_mont(value, &m, x) < 0)
        return NULL;
    while (steps > 0) {
        long long batch = steps < BATCH_STEPS ? steps : BATCH_STEPS;
        Py_BEGIN_ALLOW_THREADS
        mont_squarings(x, &m, batch);
        Py_END_ALLOW_THREADS
        steps -= batch;
        if (steps > 0 && PyErr_CheckSignals() < 0)
            return NULL;
    }
    return from_mont(x, &m);
}

PyDoc_STRVAR(modpow_doc,
"modpow(base, exp, modulus)\n--\n\n"
"pow(base, exp, modulus): a fixed 4-bit-window Montgomery exponentiation for\n"
"odd moduli; the built-in pow for even or oversize moduli, negative\n"
"exponents and anything but exact ints.");

static PyObject *
modpow(PyObject *self, PyObject *args)
{
    PyObject *base, *exp, *modulus;
    if (!PyArg_ParseTuple(args, "OOO:modpow", &base, &exp, &modulus))
        return NULL;

    mont_t m;
    int fits = 0;
    if (PyLong_CheckExact(base) && PyLong_CheckExact(exp) && PyLong_CheckExact(modulus)) {
        int plain = compare_small(exp, 0, Py_GE);
        if (plain > 0)
            plain = compare_small(modulus, 1, Py_GT);
        if (plain > 0)
            fits = mont_init(&m, modulus);
        if (plain < 0 || fits < 0)
            return NULL;
    }
    if (!fits)
        return PyNumber_Power(base, exp, modulus);

    PyObject *width = PyObject_CallMethod(exp, "bit_length", NULL);
    if (width == NULL)
        return NULL;
    Py_ssize_t nbytes = (PyLong_AsSsize_t(width) + 7) / 8;
    Py_DECREF(width);
    PyObject *raw = PyObject_CallMethod(exp, "to_bytes", "ns", nbytes, "little");
    if (raw == NULL)
        return NULL;
    const unsigned char *e = (const unsigned char *)PyBytes_AS_STRING(raw);

    /* table[i] = base**i in Montgomery form; table[0] is 1. */
    limb_t table[1 << WINDOW_BITS][MAX_LIMBS], acc[MAX_LIMBS];
    PyObject *one = PyLong_FromLong(1);
    int rc = one == NULL ? -1 : to_mont(one, &m, table[0]);
    Py_XDECREF(one);
    if (rc < 0 || to_mont(base, &m, table[1]) < 0) {
        Py_DECREF(raw);
        return NULL;
    }
    for (int i = 2; i < (1 << WINDOW_BITS); i++)
        mont_mul(table[i], table[i - 1], table[1], &m);

    memcpy(acc, table[0], (size_t)m.k * sizeof(limb_t));
    int started = 0;
    for (Py_ssize_t i = 2 * nbytes - 1; i >= 0; i--) {
        unsigned digit = (e[i / 2] >> (4 * (i % 2))) & 0xF;
        if (started)
            for (int s = 0; s < WINDOW_BITS; s++)
                mont_mul(acc, acc, acc, &m);
        if (digit == 0)
            continue;
        if (started) {
            mont_mul(acc, acc, table[digit], &m);
        } else {
            memcpy(acc, table[digit], (size_t)m.k * sizeof(limb_t));
            started = 1;
        }
    }
    Py_DECREF(raw);
    return from_mont(acc, &m);
}

static PyMethodDef kernel_methods[] = {
    {"square_chain", (PyCFunction)(void (*)(void))square_chain,
     METH_VARARGS | METH_KEYWORDS, square_chain_doc},
    {"modpow", modpow, METH_VARARGS, modpow_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    "_seqsquare",
    "Montgomery sequential-squaring and exponentiation kernel in C.",
    -1,
    kernel_methods,
};

PyMODINIT_FUNC
PyInit__seqsquare(void)
{
    PyObject *module = PyModule_Create(&kernel_module);
    if (module != NULL && PyModule_AddStringConstant(module, "BACKEND", "montgomery-c") < 0)
        Py_CLEAR(module);
    return module;
}
