"""
Assembling knowledge-prompted examples
======================================

Retrieved sentences, matched terms, and templates all reach the model the
same way: as prefix blocks spliced in front of the encoder and decoder
sequences, each block opened by its special token. The loss mask keeps
training focused on the real target tokens.
"""

from promptmt import KnowledgeBundle, SentencePair, assemble, strip_knowledge

pair = SentencePair(
    "the bank raised the rate".split(),
    "das geldinstitut erhoehte den satz".split(),
    id=0,
)

bundle = KnowledgeBundle(
    similar=(
        tuple("the bank cut the rate".split()),
        tuple("das geldinstitut senkte den satz".split()),
    ),
    terms=((("bank",), ("geldinstitut",)),),
    template=(("NP", "VP"), ("NP", "VP")),
)

# a training example carries the target and masks everything before it
example = assemble(pair, bundle)
print("input: ", " ".join(example.input_tokens))
print("output:", " ".join(example.output_tokens))
print("mask:  ", " ".join(str(m) for m in example.loss_mask))

# inference examples stop at [Output]; decoding continues from there
inference = assemble(pair, bundle, include_target=False)
print("\ninference output ends at:", inference.output_tokens[-1])
print("mask is all zero:", not any(inference.loss_mask))

# the same pair without knowledge is the plain seq2seq example
plain = strip_knowledge(example)
print("\nstripped input: ", " ".join(plain.input_tokens))
print("stripped output:", " ".join(plain.output_tokens))

# an example over the model's positions sheds whole blocks (template,
# then sentence, then terms) from both sides at once until both fit; the
# sentence itself is never cut, and a bare pair that does not fit is an error
short = assemble(pair, bundle, max_positions=10)
print("\nat max_positions=10:", " ".join(short.input_tokens))
print("                    ", " ".join(short.output_tokens))
