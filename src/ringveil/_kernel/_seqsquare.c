/*
 * Compiled sequential-squaring and modular-exponentiation kernel.
 *
 * Odd moduli wider than one 64-bit limb run on libcrypto's BIGNUM Montgomery
 * arithmetic (Montgomery, "Modular multiplication without trial division",
 * Math. Comp. 1985), whose x86-64 multiply and square loops use mulx/adcx/adox
 * (Gueron, "Efficient software implementations of modular exponentiation",
 * J. Cryptogr. Eng. 2012).  square_chain enters Montgomery form once, makes
 * exactly one BN_mod_mul_montgomery squaring per step, so there is no exponent
 * shortcut on this path, and leaves Montgomery form once.  Moduli of one limb
 * take a dedicated loop, where libcrypto's per-call overhead would dominate.
 * Even moduli, which Montgomery reduction cannot serve, run the pure kernel's
 * big-int loop.  modpow is BN_mod_exp_mont_consttime for odd moduli, so its
 * running time does not depend on the exponent's bits; anything else goes to
 * the built-in pow.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <limits.h>
#include <stdint.h>

#include <openssl/bn.h>
#include <openssl/err.h>

typedef uint64_t limb_t;
typedef unsigned __int128 dlimb_t;

#define LIMB_BITS 64
/* Squarings between two checks for a pending signal; the interpreter lock
   is released while each batch runs. */
#define BATCH_STEPS 65536

/* A squaring chain in Montgomery form: over one limb when mont is NULL,
   otherwise over libcrypto BIGNUMs. */
typedef struct {
    limb_t v, n, ninv; /* one limb: value, modulus, -n^-1 mod 2^64 */
    BIGNUM *x;
    BN_MONT_CTX *mont;
    BN_CTX *ctx;
} chain_t;

/* a * b * 2^-64 mod n, for a, b < n. */
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

/* count squarings of c; 0 when a libcrypto call failed.  Touches no Python
   object, so it runs with the interpreter lock released. */
static int
squarings(chain_t *c, long long count)
{
    if (c->mont == NULL) {
        limb_t v = c->v;
        for (long long i = 0; i < count; i++)
            v = mont_mul1(v, v, c->n, c->ninv);
        c->v = v;
        return 1;
    }
    for (long long i = 0; i < count; i++)
        if (!BN_mod_mul_montgomery(c->x, c->x, c->x, c->mont, c->ctx))
            return 0;
    return 1;
}

/* steps squarings of c in batches, with the interpreter lock released while
   each batch runs and pending signals handled between batches.  0 on
   failure, with a Python exception set when a signal handler raised. */
static int
run_batches(chain_t *c, long long steps)
{
    int ok = 1;
    while (ok && steps > 0) {
        long long batch = steps < BATCH_STEPS ? steps : BATCH_STEPS;
        Py_BEGIN_ALLOW_THREADS
        ok = squarings(c, batch);
        Py_END_ALLOW_THREADS
        steps -= batch;
        if (ok && steps > 0 && PyErr_CheckSignals() < 0)
            ok = 0;
    }
    return ok;
}

/* Raise for a failed libcrypto call, unless a Python exception is already
   set, and clear the OpenSSL error queue.  Returns NULL. */
static PyObject *
crypto_error(void)
{
    unsigned long code = ERR_peek_last_error();
    if (!PyErr_Occurred()) {
        if (ERR_GET_REASON(code) == ERR_R_MALLOC_FAILURE) {
            PyErr_NoMemory();
        } else {
            char reason[256];
            ERR_error_string_n(code, reason, sizeof reason);
            PyErr_Format(PyExc_RuntimeError, "libcrypto BIGNUM call failed: %s", reason);
        }
    }
    ERR_clear_error();
    return NULL;
}

/* v.bit_length(); -1 with an exception set. */
static Py_ssize_t
bit_length(PyObject *v)
{
    PyObject *width = PyObject_CallMethod(v, "bit_length", NULL);
    if (width == NULL)
        return -1;
    Py_ssize_t bits = PyLong_AsSsize_t(width);
    Py_DECREF(width);
    return bits;
}

/* A new BIGNUM holding the int v, with 0 <= v < 2^(8 nbytes); NULL on
   failure. */
static BIGNUM *
int_to_bn(PyObject *v, Py_ssize_t nbytes)
{
    if (nbytes > INT_MAX) {
        PyErr_SetString(PyExc_OverflowError, "integer too wide for libcrypto");
        return NULL;
    }
    PyObject *raw = PyObject_CallMethod(v, "to_bytes", "ns", nbytes, "little");
    if (raw == NULL)
        return NULL;
    BIGNUM *bn = BN_lebin2bn((const unsigned char *)PyBytes_AS_STRING(raw), (int)nbytes, NULL);
    Py_DECREF(raw);
    return bn;
}

/* A new BIGNUM holding value % modulus, where modulus fits in nbytes bytes. */
static BIGNUM *
residue_to_bn(PyObject *value, PyObject *modulus, Py_ssize_t nbytes)
{
    PyObject *reduced = PyNumber_Remainder(value, modulus);
    if (reduced == NULL)
        return NULL;
    BIGNUM *bn = int_to_bn(reduced, nbytes);
    Py_DECREF(reduced);
    return bn;
}

/* The int that bn, below 2^(8 nbytes), holds; NULL on failure. */
static PyObject *
bn_to_int(const BIGNUM *bn, Py_ssize_t nbytes)
{
    PyObject *raw = PyBytes_FromStringAndSize(NULL, nbytes);
    if (raw == NULL)
        return NULL;
    PyObject *out = NULL;
    if (BN_bn2lebinpad(bn, (unsigned char *)PyBytes_AS_STRING(raw), (int)nbytes) == nbytes)
        out = PyObject_CallMethod((PyObject *)&PyLong_Type, "from_bytes", "Os", raw, "little");
    Py_DECREF(raw);
    return out;
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

/* square_chain for an odd modulus of at most one limb. */
static PyObject *
limb_chain(PyObject *value, PyObject *modulus, long long steps)
{
    PyObject *reduced = PyNumber_Remainder(value, modulus);
    if (reduced == NULL)
        return NULL;
    chain_t c = {.n = PyLong_AsUnsignedLongLongMask(modulus)};
    limb_t v = PyLong_AsUnsignedLongLong(reduced);
    Py_DECREF(reduced);
    if (PyErr_Occurred())
        return NULL;
    /* n * n == 1 mod 8, so x = n inverts n to 3 bits; each Newton step
       doubles that: 6, 12, 24, 48, 96. */
    limb_t x = c.n;
    for (int i = 0; i < 5; i++)
        x *= 2 - c.n * x;
    c.ninv = (limb_t)0 - x;
    c.v = (limb_t)(((dlimb_t)v << LIMB_BITS) % c.n);
    if (!run_batches(&c, steps))
        return NULL;
    return PyLong_FromUnsignedLongLong(mont_mul1(c.v, 1, c.n, c.ninv));
}

/* square_chain for an odd modulus of nbytes bytes, wider than one limb. */
static PyObject *
bn_chain(PyObject *value, PyObject *modulus, Py_ssize_t nbytes, long long steps)
{
    PyObject *result = NULL;
    chain_t c = {.ctx = BN_CTX_new(), .mont = BN_MONT_CTX_new()};
    BIGNUM *n = NULL;
    if (c.ctx != NULL && c.mont != NULL
        && (n = int_to_bn(modulus, nbytes)) != NULL
        && (c.x = residue_to_bn(value, modulus, nbytes)) != NULL
        && BN_MONT_CTX_set(c.mont, n, c.ctx)
        && BN_to_montgomery(c.x, c.x, c.mont, c.ctx)
        && run_batches(&c, steps)
        && BN_from_montgomery(c.x, c.x, c.mont, c.ctx))
        result = bn_to_int(c.x, nbytes);
    if (result == NULL)
        crypto_error();
    BN_free(c.x);
    BN_free(n);
    BN_MONT_CTX_free(c.mont);
    BN_CTX_free(c.ctx);
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

    if (!PyLong_CheckExact(value) || !PyLong_CheckExact(modulus)
        || !(PyLong_AsUnsignedLongLongMask(modulus) & 1))
        return bigint_chain(value, modulus, steps);
    Py_ssize_t bits = bit_length(modulus);
    if (bits < 0)
        return NULL;
    if (bits <= LIMB_BITS)
        return limb_chain(value, modulus, steps);
    return bn_chain(value, modulus, (bits + 7) / 8, steps);
}

/* BN_mod_exp_mont_consttime for exact ints, exp >= 0 and an odd modulus
   of nbytes bytes. */
static PyObject *
bn_modpow(PyObject *base, PyObject *exp, PyObject *modulus, Py_ssize_t nbytes)
{
    Py_ssize_t exp_bits = bit_length(exp);
    if (exp_bits < 0)
        return NULL;
    PyObject *result = NULL;
    BN_CTX *ctx = BN_CTX_new();
    BIGNUM *r = BN_new(), *n = NULL, *a = NULL, *e = NULL;
    if (ctx != NULL && r != NULL
        && (n = int_to_bn(modulus, nbytes)) != NULL
        && (a = residue_to_bn(base, modulus, nbytes)) != NULL
        && (e = int_to_bn(exp, (exp_bits + 7) / 8)) != NULL
        && BN_mod_exp_mont_consttime(r, a, e, n, ctx, NULL))
        result = bn_to_int(r, nbytes);
    if (result == NULL)
        crypto_error();
    BN_clear_free(e);
    BN_free(a);
    BN_free(n);
    BN_free(r);
    BN_CTX_free(ctx);
    return result;
}

PyDoc_STRVAR(modpow_doc,
"modpow(base, exp, modulus)\n--\n\n"
"pow(base, exp, modulus): libcrypto's constant-time Montgomery exponentiation\n"
"for odd moduli above 1 and non-negative exponents; the built-in pow for\n"
"even moduli, negative exponents and anything but exact ints.");

static PyObject *
modpow(PyObject *self, PyObject *args)
{
    PyObject *base, *exp, *modulus;
    if (!PyArg_ParseTuple(args, "OOO:modpow", &base, &exp, &modulus))
        return NULL;

    if (PyLong_CheckExact(base) && PyLong_CheckExact(exp) && PyLong_CheckExact(modulus)) {
        int fits = compare_small(exp, 0, Py_GE);
        if (fits > 0)
            fits = compare_small(modulus, 1, Py_GT);
        if (fits < 0)
            return NULL;
        if (fits && (PyLong_AsUnsignedLongLongMask(modulus) & 1)) {
            Py_ssize_t bits = bit_length(modulus);
            return bits < 0 ? NULL : bn_modpow(base, exp, modulus, (bits + 7) / 8);
        }
    }
    return PyNumber_Power(base, exp, modulus);
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
    "Sequential-squaring and exponentiation kernel on libcrypto's Montgomery arithmetic.",
    -1,
    kernel_methods,
};

PyMODINIT_FUNC
PyInit__seqsquare(void)
{
    PyObject *module = PyModule_Create(&kernel_module);
    if (module != NULL && PyModule_AddStringConstant(module, "BACKEND", "openssl-bn") < 0)
        Py_CLEAR(module);
    return module;
}
