"""numpy's default generator stream in pure Python, for the learning rates.

Pcg64(seed).random() gives, draw for draw, what
np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0]).random() gives.
"""

_M32, _M53, _M64, _M128 = (1 << 32) - 1, (1 << 53) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _state_words(seed: int) -> list[int]:
    """SeedSequence(seed).spawn(1)[0]'s eight uint32 state words for PCG64."""
    entropy = [seed >> 32 * k & _M32 for k in range(max(1, (seed.bit_length() + 31) // 32))]
    entropy += [0] * (4 - len(entropy)) + [0]  # padded to the 4-word pool, then spawn key (0,)
    h = 0x43B0D7E5

    def hashmix(v: int) -> int:
        nonlocal h
        v, h = v ^ h, h * 0x931E8875 & _M32
        v = v * h & _M32
        return v ^ v >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    h, words = 0x8B51F9DD, []
    for i in range(8):
        v, h = pool[i % 4] ^ h, h * 0x58F38DED & _M32
        v = v * h & _M32
        words.append(v ^ v >> 16)
    return words


class Pcg64:
    """A uniform stream on [0, 1): PCG64 with XSL-RR output, 53-bit doubles."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int):
        w = _state_words(seed)  # uint64 word k is w[2k] | w[2k+1] << 32
        s0, s1, s2, s3 = (w[k] | w[k + 1] << 32 for k in range(0, 8, 2))
        self._inc = ((s2 << 64 | s3) << 1 | 1) & _M128
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULT + self._inc) & _M128

    def random(self) -> float:
        self._state = state = (self._state * _PCG_MULT + self._inc) & _M128
        x = (state >> 64 ^ state) & _M64  # XSL; RR by state >> 122, its top 53 bits
        return ((x | x << 64) >> ((state >> 122) + 11) & _M53) * 2.0**-53
