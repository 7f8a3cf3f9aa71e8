"""Float layer semantics, checked against direct-loop references."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn.layers import (
    Add,
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    Input,
    Linear,
    MaxPool2d,
    ReLU,
    conv2d_output_hw,
)
from tests.models import output_shape


def conv_reference(x, w, b, stride, padding):
    """Naive direct convolution for cross-checking im2col."""
    m, c, r, s = w.shape
    oh, ow = conv2d_output_hw(x.shape[1], x.shape[2], r, s, stride, padding)
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((m, oh, ow))
    for f in range(m):
        for oy in range(oh):
            for ox in range(ow):
                patch = xp[:, oy * stride : oy * stride + r, ox * stride : ox * stride + s]
                out[f, oy, ox] = np.sum(patch * w[f]) + b[f]
    return out


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_direct_convolution(self, stride, padding):
        rng = np.random.default_rng(stride * 10 + padding)
        x = rng.normal(size=(3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        conv = Conv2d(w, b, stride=stride, padding=padding)
        assert np.allclose(conv.forward(x), conv_reference(x, w, b, stride, padding))

    def test_1x1_conv(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 5, 5))
        w = rng.normal(size=(2, 4, 1, 1))
        conv = Conv2d(w, padding=0)
        expected = np.einsum("mc,chw->mhw", w[:, :, 0, 0], x)
        assert np.allclose(conv.forward(x), expected)

    def test_output_shape(self):
        conv = Conv2d(np.zeros((8, 3, 3, 3)), stride=2, padding=1)
        assert output_shape(conv, (3, 56, 56)) == (8, 28, 28)

    def test_channel_mismatch(self):
        conv = Conv2d(np.zeros((8, 3, 3, 3)))
        with pytest.raises(ShapeError):
            output_shape(conv, (4, 8, 8))

    def test_weight_rank_checked(self):
        with pytest.raises(ShapeError):
            Conv2d(np.zeros((3, 3)))

    def test_bias_shape_checked(self):
        with pytest.raises(ShapeError):
            Conv2d(np.zeros((8, 3, 3, 3)), bias=np.zeros(4))


class TestLinear:
    def test_matmul(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        layer = Linear(w, np.array([0.5, -0.5]))
        assert np.allclose(layer.forward(np.array([1.0, 1.0])), [3.5, 6.5])

    def test_flattens_input(self):
        layer = Linear(np.ones((1, 8)))
        assert layer.forward(np.ones((2, 2, 2)))[0] == 8

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            output_shape(Linear(np.ones((2, 4))), (5,))


class TestBatchNorm:
    def test_normalizes(self):
        bn = BatchNorm2d(
            gamma=np.array([2.0]), beta=np.array([1.0]),
            running_mean=np.array([3.0]), running_var=np.array([4.0]), eps=0.0,
        )
        x = np.full((1, 2, 2), 5.0)
        assert np.allclose(bn.forward(x), (5 - 3) / 2 * 2 + 1)

    def test_scale_shift_equivalence(self):
        rng = np.random.default_rng(1)
        bn = BatchNorm2d(
            rng.uniform(0.5, 1.5, 4), rng.normal(size=4),
            rng.normal(size=4), rng.uniform(0.5, 2, 4),
        )
        x = rng.normal(size=(4, 3, 3))
        scale, shift = bn.scale_shift()
        manual = x * scale[:, None, None] + shift[:, None, None]
        assert np.allclose(bn.forward(x), manual)


class TestPooling:
    def test_max_pool(self):
        x = np.arange(16, dtype=float).reshape(1, 4, 4)
        out = MaxPool2d(2).forward(x)
        assert out.reshape(-1).tolist() == [5, 7, 13, 15]

    def test_max_pool_with_padding_ignores_pad(self):
        x = -np.ones((1, 2, 2))
        out = MaxPool2d(3, 2, 1).forward(x)
        assert out[0, 0, 0] == -1  # padding (-inf) never wins

    def test_avg_pool(self):
        x = np.arange(16, dtype=float).reshape(1, 4, 4)
        out = AvgPool2d(2).forward(x)
        assert out.reshape(-1).tolist() == [2.5, 4.5, 10.5, 12.5]

    def test_strided_pool_shape(self):
        assert output_shape(MaxPool2d(3, 2, 1), (64, 112, 112)) == (64, 56, 56)


class TestSimpleLayers:
    def test_relu(self):
        out = ReLU().forward(np.array([-1.0, 0.0, 2.0]))
        assert out.tolist() == [0.0, 0.0, 2.0]

    def test_add_shape_check(self):
        with pytest.raises(ShapeError):
            output_shape(Add(), (1, 2, 2), (1, 3, 3))

    def test_add(self):
        out = Add().forward(np.ones((2, 2)), np.full((2, 2), 2.0))
        assert np.all(out == 3.0)

    def test_flatten(self):
        assert output_shape(Flatten(), (2, 3, 4)) == (24,)

    def test_input_validates_shape(self):
        layer = Input((3, 4, 4))
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((3, 5, 5)))
