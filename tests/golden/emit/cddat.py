"""Generated shared-memory SDF implementation."""

POOL_SIZE = 257

BUFFERS = {
    ('A', 'B', 0): dict(base=202, size=1, circular=False),
    ('B', 'C', 0): dict(base=196, size=6, circular=False),
    ('C', 'D', 0): dict(base=0, size=196, circular=False),
    ('D', 'E', 0): dict(base=196, size=56, circular=False),
    ('E', 'F', 0): dict(base=252, size=5, circular=False),
}

# Read port -> physical buffer (broadcast members share one).
READERS = {
    ('A', 'B', 0): ('A', 'B', 0),
    ('B', 'C', 0): ('B', 'C', 0),
    ('C', 'D', 0): ('C', 'D', 0),
    ('D', 'E', 0): ('D', 'E', 0),
    ('E', 'F', 0): ('E', 'F', 0),
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
    inputs.append(_read(memory, cursors, ('A', 'B', 0), 1))
    outputs = actors['B'](inputs)
    if len(outputs) != 1:
        raise ValueError('actor B must return 1 output token lists')
    if len(outputs[0]) != 2:
        raise ValueError('actor B output 0 must have 2 words')
    _write(memory, cursors, ('B', 'C', 0), outputs[0])

def _fire_C(memory, cursors, actors):
    inputs = []
    inputs.append(_read(memory, cursors, ('B', 'C', 0), 3))
    outputs = actors['C'](inputs)
    if len(outputs) != 1:
        raise ValueError('actor C must return 1 output token lists')
    if len(outputs[0]) != 2:
        raise ValueError('actor C output 0 must have 2 words')
    _write(memory, cursors, ('C', 'D', 0), outputs[0])

def _fire_D(memory, cursors, actors):
    inputs = []
    inputs.append(_read(memory, cursors, ('C', 'D', 0), 7))
    outputs = actors['D'](inputs)
    if len(outputs) != 1:
        raise ValueError('actor D must return 1 output token lists')
    if len(outputs[0]) != 8:
        raise ValueError('actor D output 0 must have 8 words')
    _write(memory, cursors, ('D', 'E', 0), outputs[0])

def _fire_E(memory, cursors, actors):
    inputs = []
    inputs.append(_read(memory, cursors, ('D', 'E', 0), 7))
    outputs = actors['E'](inputs)
    if len(outputs) != 1:
        raise ValueError('actor E must return 1 output token lists')
    if len(outputs[0]) != 5:
        raise ValueError('actor E output 0 must have 5 words')
    _write(memory, cursors, ('E', 'F', 0), outputs[0])

def _fire_F(memory, cursors, actors):
    inputs = []
    inputs.append(_read(memory, cursors, ('E', 'F', 0), 1))
    outputs = actors['F'](inputs)
    if len(outputs) != 0:
        raise ValueError('actor F must return 0 output token lists')

def run_period(memory, cursors, actors):
    cursors.reset(('C', 'D', 0))
    for _ in range(49):
        cursors.reset(('B', 'C', 0))
        for _ in range(3):
            cursors.reset(('A', 'B', 0))
            _fire_A(memory, cursors, actors)
            _fire_B(memory, cursors, actors)
        for _ in range(2):
            _fire_C(memory, cursors, actors)
    for _ in range(4):
        cursors.reset(('D', 'E', 0))
        for _ in range(7):
            _fire_D(memory, cursors, actors)
        for _ in range(8):
            cursors.reset(('E', 'F', 0))
            _fire_E(memory, cursors, actors)
            for _ in range(5):
                _fire_F(memory, cursors, actors)


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

