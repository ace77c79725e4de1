(: XMark Q16 — sellers of closed auctions whose annotation carries the
   deep keyword chain (a long existence predicate). :)
<out>{
  for $a in /site/closed_auctions/closed_auction
    [./annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword]
  return <person>{$a/seller/seller_person/text()}</person>
}</out>
