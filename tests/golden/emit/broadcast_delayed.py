"""Generated shared-memory SDF implementation."""

POOL_SIZE = 107

BUFFERS = {
    ('n1', 'n0', 0): dict(base=68, size=1, circular=False),
    ('n1', 'n4', 0): dict(base=44, size=20, circular=False),
    ('n4', 'n5', 0): dict(base=87, size=20, circular=False),
    ('n0', 'n3', 0): dict(base=32, size=12, circular=False),
    ('n1', 'n2', 0): dict(base=64, size=4, circular=False),
    ('n2', 'n6', 0): dict(base=68, size=4, circular=False),
    ('n5', 'n3', 0): dict(base=44, size=12, circular=False),
    ('n4', 'n3', 0): dict(base=72, size=15, circular=False),
    ('bcast', 'bc0'): dict(base=0, size=24, circular=True),
    ('bcast', 'bc1'): dict(base=24, size=8, circular=False),
}

# Read port -> physical buffer (broadcast members share one).
READERS = {
    ('n1', 'n0', 0): ('n1', 'n0', 0),
    ('n1', 'n4', 0): ('n1', 'n4', 0),
    ('n4', 'n5', 0): ('n4', 'n5', 0),
    ('n0', 'n3', 0): ('n0', 'n3', 0),
    ('n1', 'n2', 0): ('n1', 'n2', 0),
    ('n2', 'n6', 0): ('n2', 'n6', 0),
    ('n5', 'n3', 0): ('n5', 'n3', 0),
    ('n4', 'n3', 0): ('n4', 'n3', 0),
    ('n5', 'n3', 1): ('bcast', 'bc0'),
    ('n5', 'n6', 0): ('bcast', 'bc0'),
    ('n1', 'n0', 1): ('bcast', 'bc1'),
    ('n1', 'n5', 0): ('bcast', 'bc1'),
    ('n1', 'n6', 0): ('bcast', 'bc1'),
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

def _fire_n0(memory, cursors, actors):
    inputs = []
    inputs.append(_read(memory, cursors, ('n1', 'n0', 0), 1))
    inputs.append(_read(memory, cursors, ('n1', 'n0', 1), 2))
    outputs = actors['n0'](inputs)
    if len(outputs) != 1:
        raise ValueError('actor n0 must return 1 output token lists')
    if len(outputs[0]) != 3:
        raise ValueError('actor n0 output 0 must have 3 words')
    _write(memory, cursors, ('n0', 'n3', 0), outputs[0])

def _fire_n1(memory, cursors, actors):
    inputs = []
    outputs = actors['n1'](inputs)
    if len(outputs) != 4:
        raise ValueError('actor n1 must return 4 output token lists')
    if len(outputs[0]) != 1:
        raise ValueError('actor n1 output 0 must have 1 words')
    _write(memory, cursors, ('n1', 'n0', 0), outputs[0])
    if len(outputs[1]) != 5:
        raise ValueError('actor n1 output 1 must have 5 words')
    _write(memory, cursors, ('n1', 'n4', 0), outputs[1])
    if len(outputs[2]) != 1:
        raise ValueError('actor n1 output 2 must have 1 words')
    _write(memory, cursors, ('n1', 'n2', 0), outputs[2])
    if len(outputs[3]) != 2:
        raise ValueError('actor n1 output 3 must have 2 words')
    _write(memory, cursors, ('bcast', 'bc1'), outputs[3])

def _fire_n2(memory, cursors, actors):
    inputs = []
    inputs.append(_read(memory, cursors, ('n1', 'n2', 0), 4))
    outputs = actors['n2'](inputs)
    if len(outputs) != 1:
        raise ValueError('actor n2 must return 1 output token lists')
    if len(outputs[0]) != 4:
        raise ValueError('actor n2 output 0 must have 4 words')
    _write(memory, cursors, ('n2', 'n6', 0), outputs[0])

def _fire_n3(memory, cursors, actors):
    inputs = []
    inputs.append(_read(memory, cursors, ('n0', 'n3', 0), 4))
    inputs.append(_read(memory, cursors, ('n5', 'n3', 0), 4))
    inputs.append(_read(memory, cursors, ('n4', 'n3', 0), 5))
    inputs.append(_read(memory, cursors, ('n5', 'n3', 1), 4))
    outputs = actors['n3'](inputs)
    if len(outputs) != 0:
        raise ValueError('actor n3 must return 0 output token lists')

def _fire_n4(memory, cursors, actors):
    inputs = []
    inputs.append(_read(memory, cursors, ('n1', 'n4', 0), 4))
    outputs = actors['n4'](inputs)
    if len(outputs) != 2:
        raise ValueError('actor n4 must return 2 output token lists')
    if len(outputs[0]) != 4:
        raise ValueError('actor n4 output 0 must have 4 words')
    _write(memory, cursors, ('n4', 'n5', 0), outputs[0])
    if len(outputs[1]) != 3:
        raise ValueError('actor n4 output 1 must have 3 words')
    _write(memory, cursors, ('n4', 'n3', 0), outputs[1])

def _fire_n5(memory, cursors, actors):
    inputs = []
    inputs.append(_read(memory, cursors, ('n4', 'n5', 0), 5))
    inputs.append(_read(memory, cursors, ('n1', 'n5', 0), 2))
    outputs = actors['n5'](inputs)
    if len(outputs) != 2:
        raise ValueError('actor n5 must return 2 output token lists')
    if len(outputs[0]) != 3:
        raise ValueError('actor n5 output 0 must have 3 words')
    _write(memory, cursors, ('n5', 'n3', 0), outputs[0])
    if len(outputs[1]) != 3:
        raise ValueError('actor n5 output 1 must have 3 words')
    _write(memory, cursors, ('bcast', 'bc0'), outputs[1])

def _fire_n6(memory, cursors, actors):
    inputs = []
    inputs.append(_read(memory, cursors, ('n2', 'n6', 0), 1))
    inputs.append(_read(memory, cursors, ('n5', 'n6', 0), 3))
    inputs.append(_read(memory, cursors, ('n1', 'n6', 0), 2))
    outputs = actors['n6'](inputs)
    if len(outputs) != 0:
        raise ValueError('actor n6 must return 0 output token lists')

def run_period(memory, cursors, actors):
    cursors.reset(('n1', 'n4', 0))
    cursors.reset(('n0', 'n3', 0))
    cursors.reset(('n1', 'n2', 0))
    cursors.reset(('bcast', 'bc1'))
    for _ in range(4):
        cursors.reset(('n1', 'n0', 0))
        _fire_n1(memory, cursors, actors)
        _fire_n0(memory, cursors, actors)
    cursors.reset(('n2', 'n6', 0))
    _fire_n2(memory, cursors, actors)
    cursors.reset(('n4', 'n5', 0))
    cursors.reset(('n4', 'n3', 0))
    for _ in range(5):
        _fire_n4(memory, cursors, actors)
    cursors.reset(('n5', 'n3', 0))
    for _ in range(4):
        _fire_n5(memory, cursors, actors)
    for _ in range(3):
        _fire_n3(memory, cursors, actors)
    for _ in range(4):
        _fire_n6(memory, cursors, actors)


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

