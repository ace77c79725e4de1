(: Corner case (Fig. 4(i)) — duplication of deep subtrees: each closed
   auction's annotation is copied twice into nested constructors. :)
<deepdup>{
  for $x in /site/closed_auctions/closed_auction
  return <r><r1>{$x/annotation}</r1>{$x/annotation}</r>
}</deepdup>
