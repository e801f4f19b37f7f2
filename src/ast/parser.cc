#include "src/ast/parser.h"

#include <cctype>
#include <string>
#include <vector>

#include "src/analysis/diagnostics.h"
#include "src/util/strings.h"

namespace datalog {
namespace {

enum class TokenKind {
  kIdentifier,  // lowercase-leading: predicate or constant
  kVariable,    // uppercase/underscore-leading
  kNumber,
  kString,  // quoted constant
  kLeftParen,
  kRightParen,
  kComma,
  kImplies,  // :-
  kPeriod,
  kEnd,
};

struct Token {
  TokenKind kind;
  std::string text;
  int line;
  int column;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  StatusOr<std::vector<Token>> Tokenize() {
    std::vector<Token> tokens;
    while (true) {
      SkipWhitespaceAndComments();
      if (pos_ >= text_.size()) break;
      int line = line_;
      int column = column_;
      char c = text_[pos_];
      if (c == '(') {
        tokens.push_back({TokenKind::kLeftParen, "(", line, column});
        Advance();
      } else if (c == ')') {
        tokens.push_back({TokenKind::kRightParen, ")", line, column});
        Advance();
      } else if (c == ',') {
        tokens.push_back({TokenKind::kComma, ",", line, column});
        Advance();
      } else if (c == '.') {
        tokens.push_back({TokenKind::kPeriod, ".", line, column});
        Advance();
      } else if (c == ':') {
        Advance();
        if (pos_ >= text_.size() || text_[pos_] != '-') {
          return Error(line, column, "expected '-' after ':'");
        }
        Advance();
        tokens.push_back({TokenKind::kImplies, ":-", line, column});
      } else if (c == '"') {
        Advance();
        std::string value;
        while (pos_ < text_.size() && text_[pos_] != '"') {
          if (text_[pos_] == '\n') {
            return Error(line, column, "unterminated string constant");
          }
          value.push_back(text_[pos_]);
          Advance();
        }
        if (pos_ >= text_.size()) {
          return Error(line, column, "unterminated string constant");
        }
        Advance();  // closing quote
        tokens.push_back({TokenKind::kString, std::move(value), line, column});
      } else if (std::isdigit(static_cast<unsigned char>(c))) {
        std::string value;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
          value.push_back(text_[pos_]);
          Advance();
        }
        tokens.push_back({TokenKind::kNumber, std::move(value), line, column});
      } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        std::string value;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '_')) {
          value.push_back(text_[pos_]);
          Advance();
        }
        TokenKind kind = (std::isupper(static_cast<unsigned char>(c)) ||
                          c == '_')
                             ? TokenKind::kVariable
                             : TokenKind::kIdentifier;
        tokens.push_back({kind, std::move(value), line, column});
      } else {
        return Error(line, column,
                     StrCat("unexpected character '", std::string(1, c), "'"));
      }
    }
    tokens.push_back({TokenKind::kEnd, "", line_, column_});
    return tokens;
  }

 private:
  void Advance() {
    if (text_[pos_] == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    ++pos_;
  }

  void SkipWhitespaceAndComments() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        Advance();
      } else if (c == '%') {
        while (pos_ < text_.size() && text_[pos_] != '\n') Advance();
      } else if (c == '/' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && text_[pos_] != '\n') Advance();
      } else {
        break;
      }
    }
  }

  Status Error(int line, int column, std::string message) {
    return InvalidArgumentError(
        StrCat("parse error at ", line, ":", column, ": ", message));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  StatusOr<Program> ParseProgram(bool lint) {
    std::vector<Rule> rules;
    while (Peek().kind != TokenKind::kEnd) {
      StatusOr<Rule> rule = ParseOneRule();
      if (!rule.ok()) return rule.status();
      rules.push_back(std::move(rule).value());
    }
    if (rules.empty()) {
      return Status(InvalidArgumentError("empty program"));
    }
    Program program(std::move(rules));
    if (lint) {
      // The structural lint subsumes Program::Validate (its
      // arity-mismatch check is Validate's consistency requirement);
      // only error-severity diagnostics fail the parse.
      std::vector<Diagnostic> diagnostics = LintProgram(program);
      if (HasLintErrors(diagnostics)) {
        std::string message = "program failed lint:\n";
        for (const Diagnostic& d : diagnostics) {
          if (d.severity != DiagnosticSeverity::kError) continue;
          message += FormatDiagnostic(d);
          message += '\n';
        }
        return Status(InvalidArgumentError(message));
      }
    }
    return program;
  }

  StatusOr<Rule> ParseOneRule() {
    StatusOr<Atom> head = ParseOneAtom();
    if (!head.ok()) return head.status();
    std::vector<Atom> body;
    if (Peek().kind == TokenKind::kImplies) {
      Next();
      // Allow an explicit empty body: `p(X) :- .`
      while (Peek().kind != TokenKind::kPeriod) {
        StatusOr<Atom> atom = ParseOneAtom();
        if (!atom.ok()) return atom.status();
        body.push_back(std::move(atom).value());
        if (Peek().kind == TokenKind::kComma) {
          Next();
        } else {
          break;
        }
      }
    }
    if (Peek().kind != TokenKind::kPeriod) {
      return Status(ErrorAt(Peek(), "expected '.' at end of rule"));
    }
    Next();
    return Rule(std::move(head).value(), std::move(body));
  }

  StatusOr<Atom> ParseOneAtom() {
    const Token& name = Peek();
    if (name.kind != TokenKind::kIdentifier) {
      return Status(
          ErrorAt(name, StrCat("expected predicate name, got '", name.text,
                               "'")));
    }
    std::string predicate = name.text;
    Next();
    std::vector<Term> args;
    if (Peek().kind == TokenKind::kLeftParen) {
      Next();
      if (Peek().kind != TokenKind::kRightParen) {
        while (true) {
          StatusOr<Term> term = ParseTerm();
          if (!term.ok()) return term.status();
          args.push_back(std::move(term).value());
          if (Peek().kind == TokenKind::kComma) {
            Next();
            continue;
          }
          break;
        }
      }
      if (Peek().kind != TokenKind::kRightParen) {
        return Status(ErrorAt(Peek(), "expected ')'"));
      }
      Next();
    }
    return Atom(std::move(predicate), std::move(args));
  }

  StatusOr<Term> ParseTerm() {
    const Token& token = Peek();
    switch (token.kind) {
      case TokenKind::kVariable: {
        Term t = Term::Variable(token.text);
        Next();
        return t;
      }
      case TokenKind::kIdentifier:
      case TokenKind::kNumber:
      case TokenKind::kString: {
        Term t = Term::Constant(token.text);
        Next();
        return t;
      }
      default:
        return Status(
            ErrorAt(token, StrCat("expected term, got '", token.text, "'")));
    }
  }

  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }

  Status ExpectEnd() {
    if (!AtEnd()) {
      return ErrorAt(Peek(), StrCat("unexpected trailing input '",
                                    Peek().text, "'"));
    }
    return OkStatus();
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  void Next() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }

  Status ErrorAt(const Token& token, std::string message) {
    return InvalidArgumentError(StrCat("parse error at ", token.line, ":",
                                       token.column, ": ", message));
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

StatusOr<std::vector<Token>> TokenizeAll(std::string_view text) {
  Lexer lexer(text);
  return lexer.Tokenize();
}

}  // namespace

StatusOr<Program> ParseProgram(std::string_view text) {
  return ParseProgram(text, ParseOptions());
}

StatusOr<Program> ParseProgram(std::string_view text,
                               const ParseOptions& options) {
  StatusOr<std::vector<Token>> tokens = TokenizeAll(text);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value());
  return parser.ParseProgram(options.lint);
}

StatusOr<Atom> ParseAtom(std::string_view text) {
  StatusOr<std::vector<Token>> tokens = TokenizeAll(text);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value());
  StatusOr<Atom> atom = parser.ParseOneAtom();
  if (!atom.ok()) return atom;
  Status end = parser.ExpectEnd();
  if (!end.ok()) return end;
  return atom;
}

bool IsPredicateName(std::string_view name) {
  if (name.empty() || name[0] < 'a' || name[0] > 'z') return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
      return false;
    }
  }
  return true;
}

StatusOr<Rule> ParseRule(std::string_view text) {
  StatusOr<std::vector<Token>> tokens = TokenizeAll(text);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value());
  StatusOr<Rule> rule = parser.ParseOneRule();
  if (!rule.ok()) return rule;
  Status end = parser.ExpectEnd();
  if (!end.ok()) return end;
  return rule;
}

}  // namespace datalog
