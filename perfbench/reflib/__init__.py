"""A frozen copy of the drinfeld2 library, used only as the benchmark's speed
reference (clock.py); nothing here is measured or checked.

The modules are byte-for-byte copies of src/drinfeld2/{ff, polyring, ore,
linalg, drinfeld, frobenius, classify, census}.py as they stood when the
benchmark was defined.  Do not update them along with the library: the
reference must run the same code in every comparison, or the reference
seconds of one commit would not compare with those of another.  Updating
them redefines the benchmark's unit and is a change to the benchmark.
"""
