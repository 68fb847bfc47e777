from setuptools import Extension, setup

# optional=True: a failed compile or link (no OpenSSL headers or libcrypto)
# falls back to the pure-Python kernel
setup(
    ext_modules=[
        Extension(
            "ringveil._kernel._seqsquare",
            ["src/ringveil/_kernel/_seqsquare.c"],
            libraries=["crypto"],
            optional=True,
        )
    ]
)
