"""Generated shared-memory SDF implementation."""

POOL_SIZE = 262

BUFFERS = {
    ('A', 'B', 0): dict(base=251, size=4, circular=False),
    ('B', 'C', 0): dict(base=240, size=11, circular=False),
    ('C', 'G', 0): dict(base=251, size=1, circular=False),
    ('G', 'H', 0): dict(base=240, size=1, circular=False),
    ('H', 'I', 0): dict(base=250, size=1, circular=False),
    ('D', 'E', 0): dict(base=252, size=4, circular=False),
    ('E', 'F', 0): dict(base=241, size=11, circular=False),
    ('F', 'K', 0): dict(base=252, size=1, circular=False),
    ('K', 'L', 0): dict(base=240, size=1, circular=False),
    ('L', 'M', 0): dict(base=260, size=1, circular=False),
    ('I', 'N', 0): dict(base=240, size=10, circular=False),
    ('M', 'N', 0): dict(base=250, size=10, circular=False),
    ('N', 'S', 0): dict(base=260, size=1, circular=False),
    ('S', 'J', 0): dict(base=261, size=1, circular=False),
    ('J', 'T', 0): dict(base=260, size=1, circular=False),
    ('T', 'U', 0): dict(base=261, size=1, circular=False),
    ('U', 'P', 0): dict(base=260, size=1, circular=False),
    ('P', 'Q', 0): dict(base=0, size=240, circular=False),
    ('Q', 'R', 0): dict(base=240, size=1, circular=False),
    ('R', 'V', 0): dict(base=241, size=1, circular=False),
    ('V', 'W', 0): dict(base=0, size=240, circular=False),
}

# Read port -> physical buffer (broadcast members share one).
READERS = {
    ('A', 'B', 0): ('A', 'B', 0),
    ('B', 'C', 0): ('B', 'C', 0),
    ('C', 'G', 0): ('C', 'G', 0),
    ('G', 'H', 0): ('G', 'H', 0),
    ('H', 'I', 0): ('H', 'I', 0),
    ('D', 'E', 0): ('D', 'E', 0),
    ('E', 'F', 0): ('E', 'F', 0),
    ('F', 'K', 0): ('F', 'K', 0),
    ('K', 'L', 0): ('K', 'L', 0),
    ('L', 'M', 0): ('L', 'M', 0),
    ('I', 'N', 0): ('I', 'N', 0),
    ('M', 'N', 0): ('M', 'N', 0),
    ('N', 'S', 0): ('N', 'S', 0),
    ('S', 'J', 0): ('S', 'J', 0),
    ('J', 'T', 0): ('J', 'T', 0),
    ('T', 'U', 0): ('T', 'U', 0),
    ('U', 'P', 0): ('U', 'P', 0),
    ('P', 'Q', 0): ('P', 'Q', 0),
    ('Q', 'R', 0): ('Q', 'R', 0),
    ('R', 'V', 0): ('R', 'V', 0),
    ('V', 'W', 0): ('V', 'W', 0),
}


class _Cursors:
    def __init__(self):
        self.wr = {key: 0 for key in BUFFERS}
        self.rd = {key: 0 for key in READERS}

    def reset(self, key):
        self.wr[key] = 0
        for rk, bid in READERS.items():
            if bid == key:
                self.rd[rk] = 0


def _write(memory, cursors, key, values):
    info = BUFFERS[key]
    for value in values:
        if cursors.wr[key] >= info["size"]:
            if not info["circular"]:
                raise IndexError(f"buffer overrun on {key}")
            cursors.wr[key] = 0
        memory[info["base"] + cursors.wr[key]] = value
        cursors.wr[key] += 1


def _read(memory, cursors, key, count):
    info = BUFFERS[READERS[key]]
    out = []
    for _ in range(count):
        if cursors.rd[key] >= info["size"]:
            if not info["circular"]:
                raise IndexError(f"buffer underrun on {key}")
            cursors.rd[key] = 0
        out.append(memory[info["base"] + cursors.rd[key]])
        cursors.rd[key] += 1
    return out

def _fire_A(memory, cursors, actors):
    inputs = []
    outputs = actors['A'](inputs)
    if len(outputs) != 1:
        raise ValueError('actor A must return 1 output token lists')
    if len(outputs[0]) != 1:
        raise ValueError('actor A output 0 must have 1 words')
    _write(memory, cursors, ('A', 'B', 0), outputs[0])

def _fire_B(memory, cursors, actors):
    inputs = []
    inputs.append(_read(memory, cursors, ('A', 'B', 0), 4))
    outputs = actors['B'](inputs)
    if len(outputs) != 1:
        raise ValueError('actor B must return 1 output token lists')
    if len(outputs[0]) != 1:
        raise ValueError('actor B output 0 must have 1 words')
    _write(memory, cursors, ('B', 'C', 0), outputs[0])

def _fire_C(memory, cursors, actors):
    inputs = []
    inputs.append(_read(memory, cursors, ('B', 'C', 0), 11))
    outputs = actors['C'](inputs)
    if len(outputs) != 1:
        raise ValueError('actor C must return 1 output token lists')
    if len(outputs[0]) != 1:
        raise ValueError('actor C output 0 must have 1 words')
    _write(memory, cursors, ('C', 'G', 0), outputs[0])

def _fire_G(memory, cursors, actors):
    inputs = []
    inputs.append(_read(memory, cursors, ('C', 'G', 0), 1))
    outputs = actors['G'](inputs)
    if len(outputs) != 1:
        raise ValueError('actor G must return 1 output token lists')
    if len(outputs[0]) != 1:
        raise ValueError('actor G output 0 must have 1 words')
    _write(memory, cursors, ('G', 'H', 0), outputs[0])

def _fire_H(memory, cursors, actors):
    inputs = []
    inputs.append(_read(memory, cursors, ('G', 'H', 0), 1))
    outputs = actors['H'](inputs)
    if len(outputs) != 1:
        raise ValueError('actor H must return 1 output token lists')
    if len(outputs[0]) != 1:
        raise ValueError('actor H output 0 must have 1 words')
    _write(memory, cursors, ('H', 'I', 0), outputs[0])

def _fire_I(memory, cursors, actors):
    inputs = []
    inputs.append(_read(memory, cursors, ('H', 'I', 0), 1))
    outputs = actors['I'](inputs)
    if len(outputs) != 1:
        raise ValueError('actor I must return 1 output token lists')
    if len(outputs[0]) != 10:
        raise ValueError('actor I output 0 must have 10 words')
    _write(memory, cursors, ('I', 'N', 0), outputs[0])

def _fire_D(memory, cursors, actors):
    inputs = []
    outputs = actors['D'](inputs)
    if len(outputs) != 1:
        raise ValueError('actor D must return 1 output token lists')
    if len(outputs[0]) != 1:
        raise ValueError('actor D output 0 must have 1 words')
    _write(memory, cursors, ('D', 'E', 0), outputs[0])

def _fire_E(memory, cursors, actors):
    inputs = []
    inputs.append(_read(memory, cursors, ('D', 'E', 0), 4))
    outputs = actors['E'](inputs)
    if len(outputs) != 1:
        raise ValueError('actor E must return 1 output token lists')
    if len(outputs[0]) != 1:
        raise ValueError('actor E output 0 must have 1 words')
    _write(memory, cursors, ('E', 'F', 0), outputs[0])

def _fire_F(memory, cursors, actors):
    inputs = []
    inputs.append(_read(memory, cursors, ('E', 'F', 0), 11))
    outputs = actors['F'](inputs)
    if len(outputs) != 1:
        raise ValueError('actor F must return 1 output token lists')
    if len(outputs[0]) != 1:
        raise ValueError('actor F output 0 must have 1 words')
    _write(memory, cursors, ('F', 'K', 0), outputs[0])

def _fire_K(memory, cursors, actors):
    inputs = []
    inputs.append(_read(memory, cursors, ('F', 'K', 0), 1))
    outputs = actors['K'](inputs)
    if len(outputs) != 1:
        raise ValueError('actor K must return 1 output token lists')
    if len(outputs[0]) != 1:
        raise ValueError('actor K output 0 must have 1 words')
    _write(memory, cursors, ('K', 'L', 0), outputs[0])

def _fire_L(memory, cursors, actors):
    inputs = []
    inputs.append(_read(memory, cursors, ('K', 'L', 0), 1))
    outputs = actors['L'](inputs)
    if len(outputs) != 1:
        raise ValueError('actor L must return 1 output token lists')
    if len(outputs[0]) != 1:
        raise ValueError('actor L output 0 must have 1 words')
    _write(memory, cursors, ('L', 'M', 0), outputs[0])

def _fire_M(memory, cursors, actors):
    inputs = []
    inputs.append(_read(memory, cursors, ('L', 'M', 0), 1))
    outputs = actors['M'](inputs)
    if len(outputs) != 1:
        raise ValueError('actor M must return 1 output token lists')
    if len(outputs[0]) != 10:
        raise ValueError('actor M output 0 must have 10 words')
    _write(memory, cursors, ('M', 'N', 0), outputs[0])

def _fire_N(memory, cursors, actors):
    inputs = []
    inputs.append(_read(memory, cursors, ('I', 'N', 0), 1))
    inputs.append(_read(memory, cursors, ('M', 'N', 0), 1))
    outputs = actors['N'](inputs)
    if len(outputs) != 1:
        raise ValueError('actor N must return 1 output token lists')
    if len(outputs[0]) != 1:
        raise ValueError('actor N output 0 must have 1 words')
    _write(memory, cursors, ('N', 'S', 0), outputs[0])

def _fire_S(memory, cursors, actors):
    inputs = []
    inputs.append(_read(memory, cursors, ('N', 'S', 0), 1))
    outputs = actors['S'](inputs)
    if len(outputs) != 1:
        raise ValueError('actor S must return 1 output token lists')
    if len(outputs[0]) != 1:
        raise ValueError('actor S output 0 must have 1 words')
    _write(memory, cursors, ('S', 'J', 0), outputs[0])

def _fire_J(memory, cursors, actors):
    inputs = []
    inputs.append(_read(memory, cursors, ('S', 'J', 0), 1))
    outputs = actors['J'](inputs)
    if len(outputs) != 1:
        raise ValueError('actor J must return 1 output token lists')
    if len(outputs[0]) != 1:
        raise ValueError('actor J output 0 must have 1 words')
    _write(memory, cursors, ('J', 'T', 0), outputs[0])

def _fire_T(memory, cursors, actors):
    inputs = []
    inputs.append(_read(memory, cursors, ('J', 'T', 0), 1))
    outputs = actors['T'](inputs)
    if len(outputs) != 1:
        raise ValueError('actor T must return 1 output token lists')
    if len(outputs[0]) != 1:
        raise ValueError('actor T output 0 must have 1 words')
    _write(memory, cursors, ('T', 'U', 0), outputs[0])

def _fire_U(memory, cursors, actors):
    inputs = []
    inputs.append(_read(memory, cursors, ('T', 'U', 0), 1))
    outputs = actors['U'](inputs)
    if len(outputs) != 1:
        raise ValueError('actor U must return 1 output token lists')
    if len(outputs[0]) != 1:
        raise ValueError('actor U output 0 must have 1 words')
    _write(memory, cursors, ('U', 'P', 0), outputs[0])

def _fire_P(memory, cursors, actors):
    inputs = []
    inputs.append(_read(memory, cursors, ('U', 'P', 0), 1))
    outputs = actors['P'](inputs)
    if len(outputs) != 1:
        raise ValueError('actor P must return 1 output token lists')
    if len(outputs[0]) != 1:
        raise ValueError('actor P output 0 must have 1 words')
    _write(memory, cursors, ('P', 'Q', 0), outputs[0])

def _fire_Q(memory, cursors, actors):
    inputs = []
    inputs.append(_read(memory, cursors, ('P', 'Q', 0), 240))
    outputs = actors['Q'](inputs)
    if len(outputs) != 1:
        raise ValueError('actor Q must return 1 output token lists')
    if len(outputs[0]) != 1:
        raise ValueError('actor Q output 0 must have 1 words')
    _write(memory, cursors, ('Q', 'R', 0), outputs[0])

def _fire_R(memory, cursors, actors):
    inputs = []
    inputs.append(_read(memory, cursors, ('Q', 'R', 0), 1))
    outputs = actors['R'](inputs)
    if len(outputs) != 1:
        raise ValueError('actor R must return 1 output token lists')
    if len(outputs[0]) != 1:
        raise ValueError('actor R output 0 must have 1 words')
    _write(memory, cursors, ('R', 'V', 0), outputs[0])

def _fire_V(memory, cursors, actors):
    inputs = []
    inputs.append(_read(memory, cursors, ('R', 'V', 0), 1))
    outputs = actors['V'](inputs)
    if len(outputs) != 1:
        raise ValueError('actor V must return 1 output token lists')
    if len(outputs[0]) != 240:
        raise ValueError('actor V output 0 must have 240 words')
    _write(memory, cursors, ('V', 'W', 0), outputs[0])

def _fire_W(memory, cursors, actors):
    inputs = []
    inputs.append(_read(memory, cursors, ('V', 'W', 0), 1))
    outputs = actors['W'](inputs)
    if len(outputs) != 0:
        raise ValueError('actor W must return 0 output token lists')

def run_period(memory, cursors, actors):
    cursors.reset(('P', 'Q', 0))
    for _ in range(24):
        cursors.reset(('B', 'C', 0))
        for _ in range(11):
            cursors.reset(('A', 'B', 0))
            for _ in range(4):
                _fire_A(memory, cursors, actors)
            _fire_B(memory, cursors, actors)
        cursors.reset(('C', 'G', 0))
        _fire_C(memory, cursors, actors)
        cursors.reset(('G', 'H', 0))
        _fire_G(memory, cursors, actors)
        cursors.reset(('E', 'F', 0))
        for _ in range(11):
            cursors.reset(('D', 'E', 0))
            for _ in range(4):
                _fire_D(memory, cursors, actors)
            _fire_E(memory, cursors, actors)
        cursors.reset(('F', 'K', 0))
        _fire_F(memory, cursors, actors)
        cursors.reset(('H', 'I', 0))
        _fire_H(memory, cursors, actors)
        cursors.reset(('K', 'L', 0))
        _fire_K(memory, cursors, actors)
        cursors.reset(('L', 'M', 0))
        _fire_L(memory, cursors, actors)
        cursors.reset(('I', 'N', 0))
        _fire_I(memory, cursors, actors)
        cursors.reset(('M', 'N', 0))
        _fire_M(memory, cursors, actors)
        for _ in range(10):
            cursors.reset(('N', 'S', 0))
            _fire_N(memory, cursors, actors)
            cursors.reset(('S', 'J', 0))
            _fire_S(memory, cursors, actors)
            cursors.reset(('J', 'T', 0))
            _fire_J(memory, cursors, actors)
            cursors.reset(('T', 'U', 0))
            _fire_T(memory, cursors, actors)
            cursors.reset(('U', 'P', 0))
            _fire_U(memory, cursors, actors)
            _fire_P(memory, cursors, actors)
    cursors.reset(('Q', 'R', 0))
    _fire_Q(memory, cursors, actors)
    cursors.reset(('R', 'V', 0))
    _fire_R(memory, cursors, actors)
    cursors.reset(('V', 'W', 0))
    _fire_V(memory, cursors, actors)
    for _ in range(240):
        _fire_W(memory, cursors, actors)


def run(actors, periods=1, memory=None, preloads=None):
    """Execute `periods` schedule periods; returns the memory pool.

    `preloads` maps buffer ids (edge keys; ('bcast', name) for a
    broadcast group, preloaded once) to the initial (delay) token word
    lists written before the first period.
    """
    if memory is None:
        memory = [0] * POOL_SIZE
    cursors = _Cursors()
    for key, values in (preloads or {}).items():
        _write(memory, cursors, key, values)
    for _ in range(periods):
        run_period(memory, cursors, actors)
    return memory

