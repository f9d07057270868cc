"""Layers and containers: Module, Linear, activations, Sequential, MLP.

The surrogate in the paper is a deep MLP (9 layers, up to 2048 wide); this
module provides exactly that family.  ``Module`` keeps the familiar
parameter-collection contract so optimizers and serialization stay generic.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.init import he_normal, xavier_uniform
from repro.nn.tensor import Tensor
from repro.utils.rng import SeedLike, ensure_rng


class Module:
    """Base class: anything with parameters and a ``forward``."""

    def parameters(self) -> List[Tensor]:
        """All trainable tensors, depth-first over child modules."""
        found: List[Tensor] = []
        for value in self.__dict__.values():
            if isinstance(value, Tensor) and value.requires_grad:
                found.append(value)
            elif isinstance(value, Module):
                found.extend(value.parameters())
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        found.extend(item.parameters())
        return found

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    def forward(self, inputs: Tensor) -> Tensor:
        raise NotImplementedError

    def __call__(self, inputs: Tensor) -> Tensor:
        return self.forward(inputs)

    def num_parameters(self) -> int:
        """Total scalar parameter count (for the paper's model-size note)."""
        return sum(parameter.size for parameter in self.parameters())

    # ---- serialization -------------------------------------------------

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat name -> array snapshot of all parameters."""
        return {
            f"param_{index}": parameter.data.copy()
            for index, parameter in enumerate(self.parameters())
        }

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore parameters saved by :meth:`state_dict` (shape-checked)."""
        parameters = self.parameters()
        if len(state) != len(parameters):
            raise ValueError(
                f"state has {len(state)} entries, model has {len(parameters)}"
            )
        for index, parameter in enumerate(parameters):
            value = state[f"param_{index}"]
            if value.shape != parameter.data.shape:
                raise ValueError(
                    f"parameter {index} shape {parameter.data.shape} != saved "
                    f"{value.shape}"
                )
            parameter.data[...] = value


class Linear(Module):
    """Affine layer ``y = x W + b`` with configurable initialization."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        init: str = "he",
        rng: SeedLike = None,
    ) -> None:
        if in_features < 1 or out_features < 1:
            raise ValueError("layer sizes must be positive")
        generator = ensure_rng(rng)
        if init == "he":
            weights = he_normal(in_features, out_features, generator)
        elif init == "xavier":
            weights = xavier_uniform(in_features, out_features, generator)
        else:
            raise ValueError(f"unknown init {init!r} (use 'he' or 'xavier')")
        self.weight = Tensor(weights, requires_grad=True)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs.matmul(self.weight) + self.bias


class ReLU(Module):
    """Rectified linear activation."""

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs.relu()


class Tanh(Module):
    """Hyperbolic tangent activation (used by the RL actor head)."""

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs.tanh()


class Sequential(Module):
    """Run child modules in order."""

    def __init__(self, *modules: Module) -> None:
        self.children = list(modules)

    def forward(self, inputs: Tensor) -> Tensor:
        output = inputs
        for module in self.children:
            output = module(output)
        return output

    def __iter__(self):
        return iter(self.children)

    def __len__(self) -> int:
        return len(self.children)


class MLP(Module):
    """Multi-layer perceptron: Linear/ReLU stacks with a linear head.

    ``layer_sizes`` includes input and output widths, e.g. the paper's CNN
    surrogate is ``[62, 64, 256, 1024, 2048, 2048, 1024, 256, 64, 12]``.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        *,
        activation: str = "relu",
        rng: SeedLike = None,
    ) -> None:
        if len(layer_sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        generator = ensure_rng(rng)
        init = "he" if activation == "relu" else "xavier"
        layers: List[Module] = []
        for index in range(len(layer_sizes) - 1):
            layers.append(
                Linear(layer_sizes[index], layer_sizes[index + 1], init=init, rng=generator)
            )
            if index < len(layer_sizes) - 2:
                if activation == "relu":
                    layers.append(ReLU())
                elif activation == "tanh":
                    layers.append(Tanh())
                else:
                    raise ValueError(f"unknown activation {activation!r}")
        self.network = Sequential(*layers)
        self.layer_sizes = tuple(layer_sizes)
        self.activation = activation

    def forward(self, inputs: Tensor) -> Tensor:
        return self.network(inputs)

    def infer(self, inputs: np.ndarray) -> Tuple[np.ndarray, list]:
        """Array-only forward: the output and the tape :meth:`input_gradient`
        walks back (per child: the ReLU mask, the Tanh output, or ``None``).

        Runs the numpy ops the autograd ``forward`` runs, in the same order,
        so the output is bitwise the graph's; no graph is built.
        """
        tape: list = []
        hidden = inputs
        for module in self.network:
            if isinstance(module, Linear):
                hidden = np.matmul(hidden, module.weight.data) + module.bias.data
                tape.append(None)
            elif isinstance(module, ReLU):
                mask = hidden > 0
                hidden = hidden * mask
                tape.append(mask)
            elif isinstance(module, Tanh):
                hidden = np.tanh(hidden)
                tape.append(hidden)
            else:
                raise TypeError(f"no array pass for {type(module).__name__}")
        return hidden, tape

    def input_gradient(self, seed: np.ndarray, tape: list) -> np.ndarray:
        """Gradient of ``sum(output * seed)`` with respect to the input:
        autograd's input-gradient products (``g @ W.T``, ``g * mask``,
        ``g * (1 - out**2)``), bitwise, with no weight gradient computed and
        no ``.grad`` written."""
        gradient = seed
        for module, saved in zip(reversed(self.network.children), reversed(tape)):
            if isinstance(module, Linear):
                gradient = gradient @ module.weight.data.T
            elif isinstance(module, ReLU):
                gradient = gradient * saved
            else:
                gradient = gradient * (1.0 - saved**2)
        return gradient


__all__ = ["Linear", "MLP", "Module", "ReLU", "Sequential", "Tanh"]
