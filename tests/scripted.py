"""A random source with scripted values, shared by the protocol tests."""

import random


class ScriptedRng:
    """Returns scripted values for the first randrange calls, then falls
    back to a seeded rng (used for signature nonces)."""

    def __init__(self, script, seed=0):
        self.script = list(script)
        self.rng = random.Random(seed)

    def randrange(self, *args):
        if self.script:
            return self.script.pop(0)
        return self.rng.randrange(*args)

    def randbytes(self, n):
        return self.rng.randbytes(n)
